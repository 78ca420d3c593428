// Per-test scratch directories. gtest_discover_tests turns every TEST
// into its own ctest entry, and `ctest -j` runs those processes side by
// side, so a fixture must never share a fixed temp path with another
// test: the directory name carries the pid and the running test's name.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace ams::testutil {

/// temp_directory_path() / "<prefix>_<pid>_<suite>_<test>". Not created;
/// callers remove_all it in SetUp/TearDown as before.
inline std::filesystem::path scratch_dir(const std::string& prefix) {
    std::string name = prefix + "_" + std::to_string(::getpid());
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
    return std::filesystem::temp_directory_path() / name;
}

}  // namespace ams::testutil
