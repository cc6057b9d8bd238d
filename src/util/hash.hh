/**
 * @file
 * The library's one FNV-1a 64-bit hash.
 *
 * Journal headers, records and footers, section-cache keys, protection
 * plan identities and derived seeds all fold bytes through this
 * hasher, and several of those values are stored on disk, so its
 * output is part of the file formats: never change the fold.  It is
 * header-only and inline because trace sectioning hashes every
 * executed instruction with it.
 */

#ifndef FSP_UTIL_HASH_HH
#define FSP_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fsp {

/** Incremental FNV-1a 64-bit hasher, one byte at a time. */
class Fnv1a64
{
  public:
    void
    update(const void *bytes, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(bytes);
        for (std::size_t i = 0; i < size; ++i)
            fold(p[i]);
    }

    /** The value's 8 bytes, least significant first. */
    void
    update(std::uint64_t value)
    {
        for (unsigned i = 0; i < 8; ++i)
            fold(static_cast<unsigned char>(value >> (8 * i)));
    }

    std::uint64_t digest() const { return state_; }

  private:
    void
    fold(unsigned char byte)
    {
        state_ ^= byte;
        state_ *= 0x100000001b3ULL;
    }

    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** FNV-1a 64 of @p bytes (no length prefix). */
inline std::uint64_t
fnv1a64(std::string_view bytes)
{
    Fnv1a64 hasher;
    hasher.update(bytes.data(), bytes.size());
    return hasher.digest();
}

} // namespace fsp

#endif // FSP_UTIL_HASH_HH
