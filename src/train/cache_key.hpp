// Content-addressed cache keys for trained-model checkpoints.
//
// The historical cache keyed checkpoints by an ad-hoc concatenation of a
// few config fields ("mini_c10_..._enob4.5_nm8"). Anything the string
// forgot — training schedule, dataset noise, learning rate — silently
// aliased distinct experiments onto one cache entry, so a config change
// could reuse a stale checkpoint. A CacheKey instead hashes a *canonical
// serialization* of every input that affects the produced state: each
// field is appended as one "name=value\n" record (doubles rendered with
// 17 significant digits so the text round-trips the exact bits), and the
// 64-bit FNV-1a hash of that record stream names the cache file. Two
// keys collide only if every contributing field is identical.
//
// Keys compose: a phase whose initial weights come from another cached
// phase adds the parent's hash as a field ("parent=<hex>"), so an
// upstream config change re-keys the entire downstream lineage.
//
// The human-readable `label` is a filename prefix only — it is NOT part
// of the hash, and exists so a cache directory stays listable by eye
// ("...enob4.5_nm8-9f31c2d4a07b55e1.amsckpt").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ams::train {

/// 64-bit FNV-1a over `text` (the cache's one canonical hash).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Lowercase 16-hex-digit rendering of a 64-bit hash.
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

/// Builder for one content-addressed key. Append every field that
/// affects the produced artifact; field names must not contain '=' or
/// '\n' (values containing '\n' are rejected too — both would make the
/// canonical form ambiguous; std::invalid_argument).
class CacheKey {
public:
    /// Human-readable filename prefix (sanitized; not hashed).
    CacheKey& label(std::string_view text);

    CacheKey& add(std::string_view field, std::string_view value);
    CacheKey& add(std::string_view field, const char* value) {
        return add(field, std::string_view(value));
    }
    CacheKey& add(std::string_view field, std::uint64_t value);
    CacheKey& add(std::string_view field, std::int64_t value);
    CacheKey& add(std::string_view field, int value) {
        return add(field, static_cast<std::int64_t>(value));
    }
    /// Rendered with 17 significant digits: the decimal text identifies
    /// the exact double, so equal hashes mean bit-equal values.
    CacheKey& add(std::string_view field, double value);
    CacheKey& add(std::string_view field, bool value);

    /// The canonical "name=value\n" record stream the hash covers.
    [[nodiscard]] const std::string& canonical() const { return canonical_; }
    [[nodiscard]] std::uint64_t hash() const { return fnv1a64(canonical_); }
    [[nodiscard]] std::string hex() const { return hash_hex(hash()); }

    /// Cache filename: "<label>-<hex>.amsckpt" (or "<hex>.amsckpt" with
    /// no label).
    [[nodiscard]] std::string filename() const;

    [[nodiscard]] const std::string& label_text() const { return label_; }

private:
    std::string canonical_;
    std::string label_;
};

/// Renders a double with 17 significant digits ("%.17g"): enough for the
/// text to parse back to the exact same bits. Shared by CacheKey, the
/// sweep manifest, and the sweep journals, whose resume protocol depends
/// on exact round-trips.
[[nodiscard]] std::string exact_double(double value);

/// Inverse of exact_double (std::strtod; throws std::invalid_argument on
/// text that is not a full double).
[[nodiscard]] double parse_exact_double(const std::string& text);

}  // namespace ams::train
