// EvalContext: the per-worker execution context for planned inference.
//
// One EvalContext is owned by each evaluation worker (serial eval owns a
// single one). It carries everything a forward pass needs besides the
// model itself:
//
//   * an *activations* arena — rewound between images/batches, holds the
//     layer outputs of the pass in flight;
//   * a *scratch* arena — never rewound, holds per-layer workspaces
//     (im2col columns, quantized-weight buffers) that are reserved once
//     during planning/warm-up and reused on every subsequent pass;
//   * a scratch registry keyed by (module, slot) so a module can find its
//     workspace again without storing raw pointers in itself;
//   * the thread-pool handle and an RngStream root, so the context fully
//     describes "where and how" a pass executes.
//
// The runtime layer knows nothing about Tensor; it deals in raw float
// buffers. Callers wrap an activation allocation into a borrowed Tensor
// (Tensor::borrowed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "runtime/arena.hpp"
#include "runtime/rng_stream.hpp"
#include "runtime/thread_pool.hpp"

namespace ams::runtime {

class EvalContext {
public:
    explicit EvalContext(std::uint64_t rng_seed = 0x243F6A8885A308D3ULL,
                         std::size_t initial_activation_bytes = 1u << 20,
                         std::size_t initial_scratch_bytes = 1u << 20);

    EvalContext(const EvalContext&) = delete;
    EvalContext& operator=(const EvalContext&) = delete;

    // ----- activations (rewound between images) -----
    [[nodiscard]] float* alloc_activation(std::size_t count) {
        return activations_.allocate_floats(count);
    }
    [[nodiscard]] TensorArena::Checkpoint checkpoint() const {
        return activations_.checkpoint();
    }
    void rewind(const TensorArena::Checkpoint& cp) { activations_.rewind(cp); }

    [[nodiscard]] TensorArena& activations() { return activations_; }

    // ----- per-layer scratch (persistent across passes) -----
    /// Returns a workspace of at least `floats` floats for (owner, slot).
    /// The first call allocates from the scratch arena; later calls with
    /// the same key reuse the buffer as long as it is big enough, and
    /// re-reserve a larger one otherwise (the old region stays parked in
    /// the arena — growth only happens on a shape change, so this is
    /// bounded). After warm-up this is a hash lookup: no heap activity.
    [[nodiscard]] float* reserve_scratch(const void* owner, int slot, std::size_t floats);

    [[nodiscard]] TensorArena& scratch_arena() { return scratch_; }

    // ----- environment -----
    [[nodiscard]] ThreadPool& pool() const { return *pool_; }
    [[nodiscard]] const RngStream& rng_root() const { return rng_root_; }

    /// Peak bytes held across both arenas — the memory cost of one worker.
    [[nodiscard]] std::size_t high_water_mark() const {
        return activations_.high_water_mark() + scratch_.high_water_mark();
    }

private:
    struct Key {
        const void* owner;
        int slot;
        bool operator==(const Key& o) const { return owner == o.owner && slot == o.slot; }
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            // Pointer bits mixed with the slot; fine for a registry of a
            // few dozen entries.
            const auto p = reinterpret_cast<std::uintptr_t>(k.owner);
            return std::hash<std::uintptr_t>{}(p ^ (static_cast<std::uintptr_t>(k.slot) << 48) ^
                                               (static_cast<std::uintptr_t>(k.slot) * 0x9E3779B9u));
        }
    };
    struct Entry {
        float* data = nullptr;
        std::size_t count = 0;
    };

    TensorArena activations_;
    TensorArena scratch_;
    std::unordered_map<Key, Entry, KeyHash> registry_;
    RngStream rng_root_;
    ThreadPool* pool_;
};

}  // namespace ams::runtime
