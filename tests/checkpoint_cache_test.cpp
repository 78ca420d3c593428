#include "train/checkpoint_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "scratch_dir.hpp"

namespace ams::train {
namespace {

namespace fs = std::filesystem;

class CheckpointCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testutil::scratch_dir("amsnet_cache_test").string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TensorMap make_state(float value) {
    TensorMap m;
    m["w"] = Tensor(Shape{2, 2}, value);
    return m;
}

CacheKey content_key(std::size_t retrain_epochs) {
    CacheKey key;
    key.label("ckpt_test");
    key.add("schema", "ckpt-test-v1");
    key.add("bits_w", std::uint64_t{8});
    key.add("retrain.epochs", std::uint64_t{retrain_epochs});
    key.add("lr", 0.004);
    return key;
}

/// A minimal key for tests that only need distinct entries.
CacheKey named_key(const std::string& name) {
    CacheKey key;
    key.label(name);
    key.add("name", name);
    return key;
}

TEST_F(CheckpointCacheTest, ProducesOnFirstCallOnly) {
    int calls = 0;
    auto produce = [&calls] {
        ++calls;
        return make_state(1.0f);
    };
    const TensorMap a = cached_state(dir_, named_key("key1"), produce);
    EXPECT_EQ(calls, 1);
    const TensorMap b = cached_state(dir_, named_key("key1"), produce);
    EXPECT_EQ(calls, 1);  // served from disk
    EXPECT_FLOAT_EQ(b.at("w")[0], 1.0f);
}

TEST_F(CheckpointCacheTest, DistinctKeysAreIndependent) {
    int calls = 0;
    auto produce1 = [&calls] {
        ++calls;
        return make_state(1.0f);
    };
    auto produce2 = [&calls] {
        ++calls;
        return make_state(2.0f);
    };
    (void)cached_state(dir_, named_key("a"), produce1);
    const TensorMap b = cached_state(dir_, named_key("b"), produce2);
    EXPECT_EQ(calls, 2);
    EXPECT_FLOAT_EQ(b.at("w")[0], 2.0f);
}

TEST_F(CheckpointCacheTest, CorruptFileIsRegenerated) {
    (void)cached_state(dir_, named_key("key"), [] { return make_state(3.0f); });
    // Corrupt the cache file.
    const fs::path path = fs::path(dir_) / named_key("key").filename();
    ASSERT_TRUE(fs::exists(path));
    std::ofstream(path.string(), std::ios::trunc) << "garbage";
    int calls = 0;
    const TensorMap m = cached_state(dir_, named_key("key"), [&calls] {
        ++calls;
        return make_state(4.0f);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_FLOAT_EQ(m.at("w")[0], 4.0f);
}

TEST_F(CheckpointCacheTest, SanitizeReplacesUnsafeCharacters) {
    EXPECT_EQ(sanitize_cache_key("a/b c:d"), "a_b_c_d");
    EXPECT_EQ(sanitize_cache_key("Safe-Key_1.0"), "Safe-Key_1.0");
}

TEST_F(CheckpointCacheTest, DefaultDirHonorsEnvironment) {
    // Without the env var, the fallback name is returned.
    unsetenv("AMSNET_CACHE_DIR");
    EXPECT_EQ(default_cache_dir(), "amsnet_cache");
    setenv("AMSNET_CACHE_DIR", "/tmp/ckpt_env_test", 1);
    EXPECT_EQ(default_cache_dir(), "/tmp/ckpt_env_test");
    unsetenv("AMSNET_CACHE_DIR");
}

TEST_F(CheckpointCacheTest, NoCacheFlagBypassesReads) {
    int calls = 0;
    auto produce = [&calls] {
        ++calls;
        return make_state(5.0f);
    };
    (void)cached_state(dir_, named_key("k"), produce);
    setenv("AMSNET_NO_CACHE", "1", 1);
    (void)cached_state(dir_, named_key("k"), produce);
    unsetenv("AMSNET_NO_CACHE");
    EXPECT_EQ(calls, 2);
}

TEST_F(CheckpointCacheTest, ContentKeyHitsAndRegeneratesTruncatedEntry) {
    const CacheKey key = content_key(2);
    int calls = 0;
    auto produce = [&calls] {
        ++calls;
        return make_state(6.0f);
    };
    (void)cached_state(dir_, key, produce);
    EXPECT_EQ(calls, 1);
    (void)cached_state(dir_, key, produce);
    EXPECT_EQ(calls, 1);  // disk hit under the content-hash name

    // Truncate the entry (a killed pre-atomic-rename writer): the next
    // lookup must log + recompute, not throw, and must heal the file.
    const fs::path path = fs::path(dir_) / key.filename();
    ASSERT_TRUE(fs::exists(path));
    const auto full_size = fs::file_size(path);
    fs::resize_file(path, full_size / 2);
    const TensorMap healed = cached_state(dir_, key, produce);
    EXPECT_EQ(calls, 2);
    EXPECT_FLOAT_EQ(healed.at("w")[0], 6.0f);
    EXPECT_EQ(fs::file_size(path), full_size);  // republished intact
    (void)cached_state(dir_, key, produce);
    EXPECT_EQ(calls, 2);
}

TEST_F(CheckpointCacheTest, ConfigPerturbationProducesDistinctKey) {
    // The historical failure mode: a config change (here the retrain
    // schedule) reusing a stale entry. Content hashing keys the two
    // configs to different files.
    const CacheKey two_epochs = content_key(2);
    const CacheKey three_epochs = content_key(3);
    EXPECT_NE(two_epochs.hex(), three_epochs.hex());
    EXPECT_NE(two_epochs.filename(), three_epochs.filename());

    int calls = 0;
    (void)cached_state(dir_, two_epochs, [&calls] {
        ++calls;
        return make_state(1.0f);
    });
    const TensorMap other = cached_state(dir_, three_epochs, [&calls] {
        ++calls;
        return make_state(2.0f);
    });
    EXPECT_EQ(calls, 2);  // no aliasing
    EXPECT_FLOAT_EQ(other.at("w")[0], 2.0f);
}

TEST_F(CheckpointCacheTest, ConfigPerturbationDefeatsNoCacheMemo) {
    // The in-process memo is keyed by the content path, so under
    // AMSNET_NO_CACHE=1 a config change still re-produces rather than
    // serving the stale memo entry.
    setenv("AMSNET_NO_CACHE", "1", 1);
    int calls = 0;
    (void)cached_state(dir_, content_key(4), [&calls] {
        ++calls;
        return make_state(1.0f);
    });
    (void)cached_state(dir_, content_key(4), [&calls] {
        ++calls;
        return make_state(1.0f);
    });
    EXPECT_EQ(calls, 1);  // memo serves the identical config
    const TensorMap fresh = cached_state(dir_, content_key(5), [&calls] {
        ++calls;
        return make_state(9.0f);
    });
    unsetenv("AMSNET_NO_CACHE");
    EXPECT_EQ(calls, 2);  // perturbed config misses the memo
    EXPECT_FLOAT_EQ(fresh.at("w")[0], 9.0f);
}

TEST_F(CheckpointCacheTest, AtomicPublishLeavesNoTempFiles) {
    (void)cached_state(dir_, content_key(2), [] { return make_state(1.0f); });
    save_state_atomic((fs::path(dir_) / "direct.amsckpt").string(), make_state(2.0f));
    // Overwrite through the atomic path: readers see old-or-new, and no
    // .tmp.<pid>.<seq> intermediates survive.
    save_state_atomic((fs::path(dir_) / "direct.amsckpt").string(), make_state(3.0f));
    for (const auto& entry : fs::directory_iterator(dir_)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
            << "stray temp file: " << entry.path();
    }
    EXPECT_FLOAT_EQ(load_tensor_map_file((fs::path(dir_) / "direct.amsckpt").string())
                        .at("w")[0],
                    3.0f);
}

TEST_F(CheckpointCacheTest, CacheKeyRejectsAmbiguousFields) {
    CacheKey key;
    EXPECT_THROW(key.add("a=b", "v"), std::invalid_argument);
    EXPECT_THROW(key.add("a\nb", "v"), std::invalid_argument);
    EXPECT_THROW(key.add("a", "v\nw"), std::invalid_argument);
}

TEST_F(CheckpointCacheTest, ExactDoubleRoundTrips) {
    for (double v : {1.0 / 3.0, 0.1, 6.02214076e23, -0.0, 4.9406564584124654e-324}) {
        EXPECT_EQ(parse_exact_double(exact_double(v)), v);
    }
    EXPECT_THROW((void)parse_exact_double("1.5x"), std::invalid_argument);
    EXPECT_THROW((void)parse_exact_double(""), std::invalid_argument);
}

}  // namespace
}  // namespace ams::train
