#include "train/cache_key.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "train/checkpoint_cache.hpp"

namespace ams::train {

std::uint64_t fnv1a64(std::string_view text) {
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string hash_hex(std::uint64_t hash) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

std::string exact_double(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double parse_exact_double(const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || end == nullptr || *end != '\0') {
        throw std::invalid_argument("parse_exact_double: not a double: '" + text + "'");
    }
    return v;
}

CacheKey& CacheKey::label(std::string_view text) {
    label_.assign(text);
    return *this;
}

CacheKey& CacheKey::add(std::string_view field, std::string_view value) {
    if (field.find_first_of("=\n") != std::string_view::npos) {
        throw std::invalid_argument("CacheKey: field name contains '=' or newline: " +
                                    std::string(field));
    }
    if (value.find('\n') != std::string_view::npos) {
        throw std::invalid_argument("CacheKey: value contains newline for field " +
                                    std::string(field));
    }
    canonical_.append(field);
    canonical_.push_back('=');
    canonical_.append(value);
    canonical_.push_back('\n');
    return *this;
}

CacheKey& CacheKey::add(std::string_view field, std::uint64_t value) {
    return add(field, std::string_view(std::to_string(value)));
}

CacheKey& CacheKey::add(std::string_view field, std::int64_t value) {
    return add(field, std::string_view(std::to_string(value)));
}

CacheKey& CacheKey::add(std::string_view field, double value) {
    return add(field, std::string_view(exact_double(value)));
}

CacheKey& CacheKey::add(std::string_view field, bool value) {
    return add(field, std::string_view(value ? "1" : "0"));
}

std::string CacheKey::filename() const {
    if (label_.empty()) return hex() + ".amsckpt";
    return sanitize_cache_key(label_) + "-" + hex() + ".amsckpt";
}

}  // namespace ams::train
