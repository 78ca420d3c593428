#include "core/csv.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scratch_dir.hpp"

namespace ams::core {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class CsvTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testutil::scratch_dir("amsnet_csv_test").string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
    const std::string path = dir_ + "/out.csv";
    {
        CsvWriter csv(path, {"enob", "loss"});
        csv.add_row({"8.0", "0.01"});
        csv.add_row({"9.0", "0.002"});
    }
    EXPECT_EQ(read_file(path), "enob,loss\n8.0,0.01\n9.0,0.002\n");
}

TEST_F(CsvTest, CreatesParentDirectories) {
    const std::string path = dir_ + "/a/b/c.csv";
    CsvWriter csv(path, {"x"});
    EXPECT_TRUE(fs::exists(path));
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
    const std::string path = dir_ + "/esc.csv";
    {
        CsvWriter csv(path, {"name", "note"});
        csv.add_row({"a,b", "say \"hi\""});
    }
    EXPECT_EQ(read_file(path), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, ShortRowsArePadded) {
    const std::string path = dir_ + "/pad.csv";
    {
        CsvWriter csv(path, {"a", "b", "c"});
        csv.add_row({"1"});
    }
    EXPECT_EQ(read_file(path), "a,b,c\n1,,\n");
}

TEST_F(CsvTest, ArtifactDirHonorsEnvironment) {
    unsetenv("AMSNET_ARTIFACT_DIR");
    EXPECT_EQ(artifact_dir(), "artifacts");
    setenv("AMSNET_ARTIFACT_DIR", "/tmp/my_artifacts", 1);
    EXPECT_EQ(artifact_dir(), "/tmp/my_artifacts");
    unsetenv("AMSNET_ARTIFACT_DIR");
}

}  // namespace
}  // namespace ams::core
