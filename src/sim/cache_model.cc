#include "sim/cache_model.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/logging.hh"

namespace darkside {

CacheModel::CacheModel(const CacheConfig &config)
    : config_(config),
      characteristics_(EnergyModel::sram(config.sizeBytes)),
      lineShift_(floorLog2(config.lineBytes))
{
    ds_assert(config.lineBytes >= 2 && isPowerOfTwo(config.lineBytes));
    ds_assert(config.ways > 0);
    ds_assert(config.sizeBytes % (config.lineBytes * config.ways) == 0);
    sets_ = config.sizeBytes / (config.lineBytes * config.ways);
    // Set counts need not be powers of two (Table III's 768 KB 8-way
    // arc cache has 1536 sets); index with a modulo.
    tags_.assign(sets_ * config.ways, kNone);
    lastUse_.assign(sets_ * config.ways, 0);
}

bool
CacheModel::lookup(std::uint64_t line_addr)
{
    ++clock_;
    const std::size_t ways = config_.ways;
    const std::uint64_t set = line_addr % sets_;
    const std::uint64_t tag = line_addr / sets_;
    std::uint64_t *tags = &tags_[set * ways];
    std::uint64_t *last_use = &lastUse_[set * ways];

    // Branch-free hit scan: at most one way holds the tag.
    std::size_t hit = ways;
    for (std::size_t w = 0; w < ways; ++w)
        hit = tags[w] == tag ? w : hit;
    if (hit != ways) {
        last_use[hit] = clock_;
        ++stats_.hits;
        return true;
    }

    // Miss: fill the last empty way, else the least recently used.
    std::size_t victim = ways;
    for (std::size_t w = 0; w < ways; ++w) {
        if (tags[w] == kNone)
            victim = w;
    }
    if (victim == ways) {
        victim = static_cast<std::size_t>(
            std::min_element(last_use, last_use + ways) - last_use);
    }

    ++stats_.misses;
    tags[victim] = tag;
    last_use[victim] = clock_;
    return false;
}

void
CacheModel::flush()
{
    std::fill(tags_.begin(), tags_.end(), kNone);
    lastLine_ = kNone;
}

} // namespace darkside
