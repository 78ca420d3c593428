#include "train/checkpoint_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "runtime/metrics.hpp"

namespace ams::train {

namespace {

namespace fs = std::filesystem;

// Concurrent sweep points (core::ExperimentEnv::ams_enob_sweep) may ask
// for the same checkpoint — most often a shared fp32/quantized
// prerequisite with AMSNET_NO_CACHE=1. Serialize produce+save per cache
// path so two threads never train into the same file at once; distinct
// keys stay fully concurrent. (Cross-process writers are instead made
// safe by the atomic rename publish: last writer wins with an identical,
// never-torn file.)
std::mutex g_registry_mu;
std::unordered_map<std::string, std::shared_ptr<std::mutex>>& key_registry() {
    static std::unordered_map<std::string, std::shared_ptr<std::mutex>> registry;
    return registry;
}

std::shared_ptr<std::mutex> key_mutex(const std::string& path) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    std::shared_ptr<std::mutex>& mu = key_registry()[path];
    if (!mu) mu = std::make_shared<std::mutex>();
    return mu;
}

// In-process memo for AMSNET_NO_CACHE=1 runs. Concurrent sweep workers
// (ams_enob_sweep points) share prerequisite keys: without this memo the
// key mutex merely serializes them and each worker retrains the same
// state from scratch. The memo makes the first producer authoritative for
// the process while still never trusting pre-existing disk files. Keyed
// by the full cache path — for content-addressed keys that embeds the
// config hash, so a config change can never hit a stale memo entry.
std::mutex g_memo_mu;
std::unordered_map<std::string, TensorMap>& state_memo() {
    static std::unordered_map<std::string, TensorMap> memo;
    return memo;
}

bool cache_reads_enabled() {
    const char* no_cache = std::getenv("AMSNET_NO_CACHE");
    return no_cache == nullptr || std::string(no_cache) != "1";
}

// Loads `path` if it parses, else logs and reports a recoverable miss.
// `torn` distinguishes "file exists but is corrupt" for the counter.
bool try_load(const fs::path& path, TensorMap& out) {
    if (!fs::exists(path)) return false;
    try {
        out = load_tensor_map_file(path.string());
        return true;
    } catch (const std::exception& e) {
        // A killed pre-atomic-rename writer (or bit rot) left a torn
        // entry. Recompute instead of failing the sweep.
        runtime::metrics::add(runtime::metrics::Counter::kCheckpointCorruptRecovered);
        std::cerr << "[checkpoint_cache] corrupt entry " << path.string() << " (" << e.what()
                  << "); recomputing\n";
        return false;
    }
}

}  // namespace

std::string sanitize_cache_key(const std::string& key) {
    std::string out;
    out.reserve(key.size());
    for (char c : key) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
        out.push_back(safe ? c : '_');
    }
    return out;
}

std::string default_cache_dir() {
    if (const char* env = std::getenv("AMSNET_CACHE_DIR"); env != nullptr && *env != '\0') {
        return env;
    }
    return "amsnet_cache";
}

void save_state_atomic(const std::string& path, const TensorMap& state) {
    static std::atomic<std::uint64_t> seq{0};
    const fs::path target(path);
    fs::path tmp = target;
    tmp += ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    try {
        save_tensor_map_file(tmp.string(), state);
        // rename(2) atomically replaces the target on the same
        // filesystem: readers see the old complete file or the new
        // complete file, never a partial write.
        fs::rename(tmp, target);
    } catch (...) {
        std::error_code ec;
        fs::remove(tmp, ec);
        throw;
    }
}

TensorMap cached_state(const std::string& cache_dir, const CacheKey& key,
                       const std::function<TensorMap()>& produce) {
    fs::create_directories(cache_dir);
    const fs::path path = fs::path(cache_dir) / key.filename();

    const std::shared_ptr<std::mutex> mu = key_mutex(path.string());
    std::lock_guard<std::mutex> lock(*mu);

    const bool read_cache = cache_reads_enabled();
    if (read_cache) {
        TensorMap state;
        if (try_load(path, state)) {
            runtime::metrics::add(runtime::metrics::Counter::kCheckpointDiskHits);
            return state;
        }
    } else {
        std::lock_guard<std::mutex> memo_lock(g_memo_mu);
        auto it = state_memo().find(path.string());
        if (it != state_memo().end()) {
            runtime::metrics::add(runtime::metrics::Counter::kCheckpointMemoHits);
            return it->second;
        }
    }
    runtime::metrics::add(runtime::metrics::Counter::kCheckpointMisses);
    TensorMap state = produce();
    save_state_atomic(path.string(), state);
    if (!read_cache) {
        std::lock_guard<std::mutex> memo_lock(g_memo_mu);
        state_memo()[path.string()] = state;
    }
    return state;
}

}  // namespace ams::train
