/**
 * @file
 * Byte codec of the on-disk formats (DSA1 artifact frames, persistent
 * acoustic scores, journal units): trivially copyable values in host
 * byte order and length-prefixed strings. A consume call returns false
 * instead of reading past the end, and a count read from the bytes is
 * checked against what is left before anything is sized by it, so a
 * torn or foreign record fails to parse rather than half-replaying or
 * aborting.
 */

#ifndef DARKSIDE_UTIL_POD_CODEC_HH
#define DARKSIDE_UTIL_POD_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace darkside {

template <typename T>
void
appendPod(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

inline void
appendString(std::string &out, const std::string &s)
{
    appendPod<std::uint64_t>(out, s.size());
    out.append(s);
}

template <typename T>
bool
consumePod(const std::string &in, std::size_t &offset, T &v)
{
    if (in.size() - offset < sizeof(T))
        return false;
    std::memcpy(&v, in.data() + offset, sizeof(T));
    offset += sizeof(T);
    return true;
}

inline bool
consumeString(const std::string &in, std::size_t &offset, std::string &s)
{
    std::uint64_t len = 0;
    if (!consumePod(in, offset, len) || in.size() - offset < len)
        return false;
    s.assign(in, offset, static_cast<std::size_t>(len));
    offset += static_cast<std::size_t>(len);
    return true;
}

/**
 * Consume `count` consecutive values of T, where `count` was itself
 * read from the bytes. The count is compared with the elements the
 * remaining bytes can hold by division, never by multiplying it out
 * (a count near 2^64 / sizeof(T) would wrap), and before `v` is sized.
 */
template <typename T>
bool
consumePodVector(const std::string &in, std::size_t &offset,
                 std::uint64_t count, std::vector<T> &v)
{
    if (count > (in.size() - offset) / sizeof(T))
        return false;
    v.resize(static_cast<std::size_t>(count));
    if (!v.empty()) // memcpy's pointers must be non-null even for 0
        std::memcpy(v.data(), in.data() + offset, v.size() * sizeof(T));
    offset += v.size() * sizeof(T);
    return true;
}

} // namespace darkside

#endif // DARKSIDE_UTIL_POD_CODEC_HH
