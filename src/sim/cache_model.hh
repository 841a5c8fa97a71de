/**
 * @file
 * Set-associative cache model with LRU replacement, used for the Viterbi
 * accelerator's State, Arc and Word-Lattice caches (Table III). Tracks
 * hits/misses and the energy of array accesses; misses are charged DRAM
 * line traffic by the caller's memory model.
 */

#ifndef DARKSIDE_SIM_CACHE_MODEL_HH
#define DARKSIDE_SIM_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/energy_model.hh"

namespace darkside {

/** Static cache parameters. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 64 * 1024;
    std::size_t ways = 4;
    std::size_t lineBytes = 64;
};

/** Access counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    missRate() const
    {
        return accesses() == 0
            ? 0.0
            : static_cast<double>(misses) /
                static_cast<double>(accesses());
    }
};

/**
 * Functional tag-array-only cache (no data payload needed for timing).
 *
 * The simulated streams are mostly sequential (10 B arc records, 12 B
 * lattice records), so most accesses repeat the line just accessed.
 * access() answers those inline: that line is its set's most recently
 * used way and nothing has touched the set since, so the hit changes
 * neither the LRU order nor anything but the hit count. Every other
 * access searches its set's tag array out of line.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &config);

    /**
     * Access one byte address.
     * @return true on hit
     */
    bool
    access(std::uint64_t address)
    {
        const std::uint64_t line_addr = address >> lineShift_;
        if (line_addr == lastLine_) {
            ++stats_.hits;
            return true;
        }
        lastLine_ = line_addr;
        return lookup(line_addr);
    }

    /** Invalidate everything (e.g. a new utterance / new WFST). */
    void flush();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    const CacheConfig &config() const { return config_; }

    /** Per-access dynamic energy, joules (tag + data array). */
    double accessEnergy() const { return characteristics_.accessEnergy; }

    /** Leakage power, watts. */
    double leakagePower() const { return characteristics_.leakagePower; }

    /** Area, mm^2. */
    double area() const { return characteristics_.area; }

  private:
    /** Tag of an empty way, and lastLine_ before any access. No tag or
     *  line address reaches it: a line holds at least two bytes. */
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    /** Set search (hit, or fill on a miss) for a line other than the
     *  last one accessed. */
    bool lookup(std::uint64_t line_addr);

    CacheConfig config_;
    MemoryCharacteristics characteristics_;
    std::size_t sets_;
    unsigned lineShift_;
    /** Per-set tag arrays, `ways` entries per set (kNone = empty). */
    std::vector<std::uint64_t> tags_;
    /** Access clock of each way's last use, laid out like tags_. */
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
    /** Line address of the most recent access (resident by
     *  construction), kNone after a flush. */
    std::uint64_t lastLine_ = kNone;
    CacheStats stats_;
};

} // namespace darkside

#endif // DARKSIDE_SIM_CACHE_MODEL_HH
