#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "scratch_dir.hpp"

namespace ams {
namespace {

TEST(SerializeTest, TensorRoundTrip) {
    Rng rng(1);
    Tensor t(Shape{3, 4, 5});
    t.fill_uniform(rng, -10.0f, 10.0f);
    std::stringstream ss;
    save_tensor(ss, t);
    Tensor u = load_tensor(ss);
    ASSERT_EQ(u.shape(), t.shape());
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(u[i], t[i]);
}

TEST(SerializeTest, ScalarTensorRoundTrip) {
    Tensor t(Shape{std::vector<std::size_t>{}});
    t[0] = 3.25f;
    std::stringstream ss;
    save_tensor(ss, t);
    Tensor u = load_tensor(ss);
    EXPECT_EQ(u.rank(), 0u);
    EXPECT_FLOAT_EQ(u[0], 3.25f);
}

TEST(SerializeTest, BadMagicRejected) {
    std::stringstream ss;
    ss << "this is not a tensor";
    EXPECT_THROW((void)load_tensor(ss), std::runtime_error);
}

TEST(SerializeTest, TruncatedDataRejected) {
    Tensor t(Shape{100});
    std::stringstream ss;
    save_tensor(ss, t);
    std::string payload = ss.str();
    payload.resize(payload.size() / 2);
    std::stringstream truncated(payload);
    EXPECT_THROW((void)load_tensor(truncated), std::runtime_error);
}

TEST(SerializeTest, MapRoundTripPreservesNamesAndShapes) {
    Rng rng(2);
    TensorMap map;
    map["layer0.weight"] = Tensor(Shape{4, 3});
    map["layer0.weight"].fill_uniform(rng, -1, 1);
    map["bn.running_mean"] = Tensor(Shape{7}, 0.5f);
    std::stringstream ss;
    save_tensor_map(ss, map);
    TensorMap loaded = load_tensor_map(ss);
    ASSERT_EQ(loaded.size(), 2u);
    ASSERT_TRUE(loaded.count("layer0.weight"));
    ASSERT_TRUE(loaded.count("bn.running_mean"));
    EXPECT_EQ(loaded["layer0.weight"].shape(), Shape({4, 3}));
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_FLOAT_EQ(loaded["layer0.weight"][i], map["layer0.weight"][i]);
    }
}

TEST(SerializeTest, EmptyMapRoundTrip) {
    std::stringstream ss;
    save_tensor_map(ss, {});
    EXPECT_TRUE(load_tensor_map(ss).empty());
}

TEST(SerializeTest, FileRoundTrip) {
    const std::string path =
        testutil::scratch_dir("amsnet_serialize_test").string() + ".bin";
    TensorMap map;
    map["x"] = Tensor(Shape{2, 2}, 9.0f);
    save_tensor_map_file(path, map);
    TensorMap loaded = load_tensor_map_file(path);
    EXPECT_FLOAT_EQ(loaded["x"][3], 9.0f);
    std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileThrows) {
    EXPECT_THROW((void)load_tensor_map_file("/nonexistent/dir/nope.bin"), std::runtime_error);
}

}  // namespace
}  // namespace ams
