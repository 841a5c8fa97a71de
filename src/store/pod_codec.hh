/**
 * @file
 * Byte codec of journal unit payloads (the sweep's RunCheckpoint units
 * and ServeCheckpoint's session units): trivially copyable values in
 * host byte order and length-prefixed strings. A consume call returns
 * false instead of reading past the end, so a torn or foreign unit
 * fails to parse and is recomputed rather than half-replayed.
 */

#ifndef DARKSIDE_STORE_POD_CODEC_HH
#define DARKSIDE_STORE_POD_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>

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

} // namespace darkside

#endif // DARKSIDE_STORE_POD_CODEC_HH
