// Disk cache for trained model states.
//
// The experiment benches share expensive artifacts (the pretrained FP32
// network, the 8b/6b quantized retrained networks) through this cache so
// each is trained exactly once per workspace regardless of which bench
// runs first.
//
// Entries are content-addressed: a train::CacheKey hashes a canonical
// serialization of every input that affects the state — model config,
// quant bits, backend options, seeds, training schedule, and the parent
// phase's hash — so distinct configs can never alias one file.
//
// Durability contract: every write goes to a per-process temporary file
// in the cache directory and is published with an atomic rename, so
// concurrent writer processes and SIGKILLed training runs can never
// leave a torn entry under a final name. A truncated or corrupt entry
// (e.g. one written by a pre-atomic-rename build) is logged to stderr,
// counted (checkpoint_corrupt_recovered), and recomputed rather than
// failing the caller.
#pragma once

#include <functional>
#include <string>

#include "tensor/serialize.hpp"
#include "train/cache_key.hpp"

namespace ams::train {

/// Filesystem-safe encoding of a cache-file label.
[[nodiscard]] std::string sanitize_cache_key(const std::string& key);

/// Returns the state for `key`, producing and persisting it with
/// `produce` on a miss. `cache_dir` is created if absent. A corrupt cache
/// file is regenerated rather than propagated. AMSNET_NO_CACHE=1
/// bypasses disk reads (writes still happen) but keeps an in-process
/// memo keyed by the content hash, so a config change always
/// re-produces.
[[nodiscard]] TensorMap cached_state(const std::string& cache_dir, const CacheKey& key,
                                     const std::function<TensorMap()>& produce);

/// Publishes `state` at `path` via temp-file + atomic rename. Exposed for
/// the sweep orchestrator's prerequisite seeding; throws
/// std::runtime_error on I/O failure (the temp file is removed).
void save_state_atomic(const std::string& path, const TensorMap& state);

/// Default cache directory: $AMSNET_CACHE_DIR or "amsnet_cache".
[[nodiscard]] std::string default_cache_dir();

}  // namespace ams::train
