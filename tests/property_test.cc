/**
 * @file
 * Parameterized property tests (TEST_P sweeps) over the library's core
 * invariants: heap-set correctness for every associativity, selector
 * capacity bounds, the Max-Heap hash against its original
 * implementation, cache-model sanity across geometries, hash spread
 * across index widths, edit-distance metric properties and pruning
 * monotonicity; fault isolation of AsrSystem::runTestSet across
 * worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "decoder/acoustic.hh"
#include "decoder/search_telemetry.hh"
#include "decoder/viterbi_decoder.hh"
#include "dnn/topology.hh"
#include "fault/fault.hh"
#include "mini_setup.hh"
#include "nbest/adaptive_selectors.hh"
#include "nbest/max_heap_set.hh"
#include "nbest/selectors.hh"
#include "pruning/magnitude_pruner.hh"
#include "sim/cache_model.hh"
#include "system/defaults.hh"
#include "system/score_stream.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "util/bits.hh"
#include "util/edit_distance.hh"
#include "util/rng.hh"

namespace darkside {
namespace {

// ---------------------------------------------------------------------
// MaxHeapSet: for every associativity, a random offer stream must leave
// exactly the K cheapest distinct states in the set, heap always valid.
// ---------------------------------------------------------------------

class MaxHeapSetProperty : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MaxHeapSetProperty, KeepsExactlyKBest)
{
    const std::size_t k = GetParam();
    Rng rng(1000 + k);
    for (int trial = 0; trial < 20; ++trial) {
        MaxHeapSet set(k);
        std::vector<Hypothesis> offered;
        const int count = 5 + static_cast<int>(rng.below(80));
        for (int i = 0; i < count; ++i) {
            Hypothesis h{static_cast<StateId>(i),
                         static_cast<float>(rng.below(1u << 20)), 0};
            offered.push_back(h);
            if (!set.full())
                set.insert(h);
            else if (h.cost < set.worstCost())
                set.replaceWorst(h);
            ASSERT_TRUE(set.heapValid());
        }
        std::sort(offered.begin(), offered.end(),
                  [](const Hypothesis &a, const Hypothesis &b) {
                      return a.cost < b.cost;
                  });
        const std::size_t kept =
            std::min<std::size_t>(k, offered.size());
        std::multiset<float> expected;
        for (std::size_t i = 0; i < kept; ++i)
            expected.insert(offered[i].cost);
        std::vector<Hypothesis> got;
        set.collect(got);
        ASSERT_EQ(got.size(), kept);
        std::multiset<float> actual;
        for (const auto &h : got)
            actual.insert(h.cost);
        EXPECT_EQ(actual, expected);
    }
}

TEST_P(MaxHeapSetProperty, RecombinePreservesHeap)
{
    const std::size_t k = GetParam();
    Rng rng(2000 + k);
    MaxHeapSet set(k);
    for (std::size_t i = 0; i < k; ++i) {
        set.insert(Hypothesis{static_cast<StateId>(i),
                              static_cast<float>(100 + i * 10), 0});
    }
    for (int step = 0; step < 30; ++step) {
        const auto state = static_cast<StateId>(rng.below(k));
        const int slot = set.find(state);
        ASSERT_GE(slot, 0);
        const float current =
            set.entry(static_cast<std::size_t>(slot)).cost;
        const float lower =
            current * static_cast<float>(rng.uniform(0.3, 1.0));
        set.recombine(slot, Hypothesis{state, lower, 0});
        ASSERT_TRUE(set.heapValid());
    }
}

INSTANTIATE_TEST_SUITE_P(Associativities, MaxHeapSetProperty,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

// ---------------------------------------------------------------------
// SetAssociativeHash: survivors never exceed capacity, recombination
// never loses the globally cheapest hypothesis.
// ---------------------------------------------------------------------

class HashCapacityProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{};

TEST_P(HashCapacityProperty, SurvivorsBoundedAndBestKept)
{
    const auto [entries, ways] = GetParam();
    Rng rng(entries * 131 + ways);
    SetAssociativeHash selector(entries, ways);
    for (int frame = 0; frame < 5; ++frame) {
        selector.beginFrame();
        float best_cost = 1e30f;
        StateId best_state = 0;
        const int inserts = 20 + static_cast<int>(rng.below(3000));
        for (int i = 0; i < inserts; ++i) {
            Hypothesis h{static_cast<StateId>(rng.below(100000)),
                         static_cast<float>(rng.uniform(0.0, 1e6)), 0};
            if (h.cost < best_cost) {
                best_cost = h.cost;
                best_state = h.state;
            }
            selector.insert(h);
        }
        const auto survivors = selector.finishFrame();
        EXPECT_LE(survivors.size(), entries);
        bool best_found = false;
        for (const auto &h : survivors)
            best_found |= h.state == best_state && h.cost == best_cost;
        // The cheapest hypothesis can never be evicted: replacement
        // only discards the *worst* entry of a set.
        EXPECT_TRUE(best_found);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HashCapacityProperty,
    ::testing::Values(std::make_tuple(16, 1), std::make_tuple(16, 8),
                      std::make_tuple(64, 2), std::make_tuple(256, 4),
                      std::make_tuple(1024, 8),
                      std::make_tuple(8, 8)));

// ---------------------------------------------------------------------
// Max-Heap hash reference equivalence: the production MaxHeapSet and
// SetAssociativeHash must agree with the original implementation
// operation for operation — the same survivors in the same order with
// the same cost bits and traces, the same frame minimum, the same
// counters and the same heap index vector — over random, tie-heavy,
// recombination-heavy and eviction-heavy streams, frame after frame on
// one instance so storage left over from earlier frames is read.
// ---------------------------------------------------------------------

/**
 * Verbatim port of the original xorFoldHash: folds every 64 bits of the
 * key, however few of them are set.
 */
std::uint32_t
fullWidthXorFold(std::uint64_t key, unsigned index_bits)
{
    if (index_bits == 0)
        return 0; // a single set/entry: everything maps to it
    std::uint64_t h = key;
    for (unsigned shift = index_bits; shift < 64; shift += index_bits)
        h ^= key >> shift;
    return static_cast<std::uint32_t>(h & ((1ull << index_bits) - 1));
}

/**
 * Verbatim port of the original MaxHeapSet: entries, heap index vector
 * and maximum path in three heap-allocated vectors, the maximum path
 * rebuilt after every mutation, a linear tag search.
 */
class ReferenceMaxHeapSet
{
  public:
    explicit ReferenceMaxHeapSet(std::size_t ways)
        : entries_(ways), size_(0)
    {
        ds_assert(ways >= 1 && ways <= 255);
        heap_.reserve(ways);
        maxPath_.reserve(8);
    }

    std::size_t capacity() const { return entries_.size(); }
    std::size_t size() const { return size_; }
    bool full() const { return size_ == capacity(); }

    void
    clear()
    {
        size_ = 0;
        heap_.clear();
        maxPath_.clear();
    }

    int
    find(StateId state) const
    {
        for (std::size_t i = 0; i < size_; ++i) {
            if (entries_[i].state == state)
                return static_cast<int>(i);
        }
        return -1;
    }

    const Hypothesis &
    entry(std::size_t i) const
    {
        ds_assert(i < size_);
        return entries_[i];
    }

    float
    worstCost() const
    {
        ds_assert(size_ > 0);
        return entries_[heap_[0]].cost;
    }

    void
    insert(const Hypothesis &hyp)
    {
        ds_assert(!full());
        const auto slot = static_cast<std::uint8_t>(size_);
        entries_[size_] = hyp;
        heap_.push_back(slot);
        ++size_;
        siftUp(heap_.size() - 1);
        rebuildMaxPath();
    }

    void
    recombine(int slot, const Hypothesis &hyp)
    {
        ds_assert(slot >= 0 && static_cast<std::size_t>(slot) < size_);
        ds_assert(entries_[slot].state == hyp.state);
        ds_assert(hyp.cost <= entries_[slot].cost);
        entries_[slot] = hyp;
        for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
            if (heap_[pos] == slot) {
                siftDown(pos);
                break;
            }
        }
        rebuildMaxPath();
    }

    void
    replaceWorst(const Hypothesis &hyp)
    {
        ds_assert(full());
        ds_assert(hyp.cost < worstCost());
        ds_assert(!maxPath_.empty());
        const std::uint8_t freed_slot = heap_[maxPath_[0]];

        std::size_t depth = 1;
        while (depth < maxPath_.size() &&
               costAtHeap(maxPath_[depth]) > hyp.cost) {
            ++depth;
        }
        for (std::size_t d = 1; d < depth; ++d)
            heap_[maxPath_[d - 1]] = heap_[maxPath_[d]];
        heap_[maxPath_[depth - 1]] = freed_slot;
        entries_[freed_slot] = hyp;

        rebuildMaxPath();
    }

    void
    collect(std::vector<Hypothesis> &out) const
    {
        for (std::size_t i = 0; i < size_; ++i)
            out.push_back(entries_[i]);
    }

    std::uint8_t heapIndex(std::size_t i) const { return heap_.at(i); }

  private:
    void
    rebuildMaxPath()
    {
        maxPath_.clear();
        if (heap_.empty())
            return;
        std::size_t pos = 0;
        maxPath_.push_back(0);
        while (true) {
            const std::size_t left = 2 * pos + 1;
            const std::size_t right = 2 * pos + 2;
            if (left >= heap_.size())
                break;
            std::size_t next = left;
            if (right < heap_.size() &&
                costAtHeap(right) > costAtHeap(left))
                next = right;
            maxPath_.push_back(static_cast<std::uint8_t>(next));
            pos = next;
        }
    }

    void
    siftDown(std::size_t pos)
    {
        while (true) {
            const std::size_t left = 2 * pos + 1;
            const std::size_t right = 2 * pos + 2;
            std::size_t largest = pos;
            if (left < heap_.size() &&
                costAtHeap(left) > costAtHeap(largest)) {
                largest = left;
            }
            if (right < heap_.size() &&
                costAtHeap(right) > costAtHeap(largest)) {
                largest = right;
            }
            if (largest == pos)
                return;
            std::swap(heap_[pos], heap_[largest]);
            pos = largest;
        }
    }

    void
    siftUp(std::size_t pos)
    {
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (costAtHeap(parent) >= costAtHeap(pos))
                return;
            std::swap(heap_[pos], heap_[parent]);
            pos = parent;
        }
    }

    float
    costAtHeap(std::size_t pos) const
    {
        return entries_[heap_[pos]].cost;
    }

    std::vector<Hypothesis> entries_;
    std::vector<std::uint8_t> heap_;
    std::vector<std::uint8_t> maxPath_;
    std::size_t size_;
};

/**
 * Verbatim port of the original SetAssociativeHash: a vector of
 * ReferenceMaxHeapSet, indexed by the full-width fold.
 */
class ReferenceSetAssociativeHash : public HypothesisSelector
{
  public:
    ReferenceSetAssociativeHash(std::size_t entries, std::size_t ways)
        : ways_(ways)
    {
        ds_assert(ways >= 1);
        ds_assert(entries % ways == 0);
        const std::size_t set_count = entries / ways;
        ds_assert(isPowerOfTwo(set_count));
        indexBits_ = floorLog2(set_count);
        sets_.reserve(set_count);
        for (std::size_t i = 0; i < set_count; ++i)
            sets_.emplace_back(ways);
        name_ = std::to_string(ways) + "-way-hash-" +
            std::to_string(entries);
    }

    void
    beginFrame() override
    {
        stats_ = SelectorFrameStats{};
        for (auto &set : sets_)
            set.clear();
    }

    void
    insert(const Hypothesis &hyp) override
    {
        ++stats_.insertions;
        ReferenceMaxHeapSet &set =
            sets_[fullWidthXorFold(hyp.state, indexBits_)];

        const int slot = set.find(hyp.state);
        if (slot >= 0) {
            ++stats_.recombinations;
            if (hyp.cost < set.entry(static_cast<std::size_t>(slot)).cost)
                set.recombine(slot, hyp);
            return;
        }
        if (!set.full()) {
            set.insert(hyp);
            return;
        }
        if (hyp.cost < set.worstCost()) {
            ++stats_.evictions;
            set.replaceWorst(hyp);
        } else {
            ++stats_.rejections;
        }
    }

    float
    finishFrame(std::vector<Hypothesis> &out) override
    {
        out.clear();
        for (const auto &set : sets_)
            set.collect(out);
        stats_.survivors = out.size();
        float best = std::numeric_limits<float>::infinity();
        for (const auto &h : out)
            best = std::min(best, h.cost);
        return best;
    }

    using HypothesisSelector::finishFrame;
    const char *name() const override { return name_.c_str(); }

    std::size_t entries() const { return sets_.size() * ways_; }
    std::size_t ways() const { return ways_; }

  private:
    std::size_t ways_;
    unsigned indexBits_;
    std::vector<ReferenceMaxHeapSet> sets_;
    std::string name_;
};

enum class HeapStream { Random, TieHeavy, RecombinationHeavy, EvictionHeavy };

/**
 * One frame's offers for a table of `entries` hypotheses. Frames may be
 * empty. Tie-heavy costs come from a handful of values (signed zeros
 * included), so the heap's tie order decides evictions and the frame
 * minimum's bits depend on the survivor walk order; recombination-heavy
 * streams revisit a few states; eviction-heavy streams offer fresh
 * states at mostly falling costs, so most arrivals displace a root.
 */
std::vector<Hypothesis>
heapStream(HeapStream kind, Rng &rng, std::size_t entries)
{
    static constexpr float kTieCosts[] = {-0.0f, 0.0f, 2.5f, 7.0f, 11.0f};
    const std::size_t count = rng.below(6 * entries + 8);
    std::vector<Hypothesis> offers(count);
    for (std::size_t i = 0; i < count; ++i) {
        Hypothesis &h = offers[i];
        h.trace = static_cast<std::uint32_t>(rng.next());
        switch (kind) {
          case HeapStream::Random:
            // Mostly dense ids; some use all 32 bits of the key.
            h.state = rng.chance(0.1)
                ? static_cast<StateId>(rng.next())
                : static_cast<StateId>(rng.below(4 * entries + 16));
            h.cost = static_cast<float>(rng.uniform(0.0, 1000.0));
            break;
          case HeapStream::TieHeavy:
            h.state = static_cast<StateId>(rng.below(3 * entries + 8));
            h.cost = kTieCosts[rng.below(std::size(kTieCosts))];
            break;
          case HeapStream::RecombinationHeavy:
            h.state = static_cast<StateId>(rng.below(entries / 2 + 2));
            h.cost = static_cast<float>(rng.uniform(0.0, 100.0));
            break;
          case HeapStream::EvictionHeavy:
            h.state = static_cast<StateId>(rng.next() >> 40);
            h.cost = static_cast<float>(count - i) +
                static_cast<float>(rng.below(3));
            break;
        }
    }
    return offers;
}

void
expectSameHypothesis(const Hypothesis &got, const Hypothesis &want,
                     const std::string &where)
{
    ASSERT_EQ(got.state, want.state) << where;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.cost),
              std::bit_cast<std::uint32_t>(want.cost))
        << where;
    ASSERT_EQ(got.trace, want.trace) << where;
}

void
expectSameSet(const MaxHeapSet &got, const ReferenceMaxHeapSet &want,
              const std::string &where)
{
    ASSERT_EQ(got.capacity(), want.capacity()) << where;
    ASSERT_EQ(got.size(), want.size()) << where;
    ASSERT_EQ(got.full(), want.full()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.heapIndex(i), want.heapIndex(i))
            << where << " heap position " << i;
        ASSERT_NO_FATAL_FAILURE(expectSameHypothesis(
            got.entry(i), want.entry(i),
            where + " slot " + std::to_string(i)));
    }
    if (want.size() > 0) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.worstCost()),
                  std::bit_cast<std::uint32_t>(want.worstCost()))
            << where;
    }
    ASSERT_TRUE(got.heapValid()) << where;
}

class MaxHeapSetReferenceProperty
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MaxHeapSetReferenceProperty, EveryOperationMatchesReference)
{
    const std::size_t ways = GetParam();
    Rng rng(3000 + ways);
    MaxHeapSet set(ways);
    ReferenceMaxHeapSet reference(ways);
    std::size_t replacements = 0, recombinations = 0;
    for (int frame = 0; frame < 60; ++frame) {
        const auto kind = static_cast<HeapStream>(frame % 4);
        const auto offers = heapStream(kind, rng, ways);
        for (std::size_t i = 0; i < offers.size(); ++i) {
            const Hypothesis &h = offers[i];
            const std::string where = "frame " + std::to_string(frame) +
                " offer " + std::to_string(i);
            const int slot = reference.find(h.state);
            ASSERT_EQ(set.find(h.state), slot) << where;
            if (slot >= 0) {
                if (h.cost <
                    reference.entry(static_cast<std::size_t>(slot)).cost) {
                    set.recombine(slot, h);
                    reference.recombine(slot, h);
                    ++recombinations;
                }
            } else if (!reference.full()) {
                set.insert(h);
                reference.insert(h);
            } else if (h.cost < reference.worstCost()) {
                set.replaceWorst(h);
                reference.replaceWorst(h);
                ++replacements;
            }
            ASSERT_NO_FATAL_FAILURE(expectSameSet(set, reference, where));
        }
        std::vector<Hypothesis> got, want;
        set.collect(got);
        reference.collect(want);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_NO_FATAL_FAILURE(expectSameHypothesis(
                got[i], want[i], "collected " + std::to_string(i)));
        }
        // A cleared set finds none of the states it held.
        set.clear();
        reference.clear();
        ASSERT_NO_FATAL_FAILURE(expectSameSet(set, reference, "cleared"));
        for (const auto &h : want)
            ASSERT_EQ(set.find(h.state), -1);
    }
    EXPECT_GT(replacements, 0u);
    EXPECT_GT(recombinations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, MaxHeapSetReferenceProperty,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

/** (entries, ways). */
class MaxHeapHashReferenceProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{};

TEST_P(MaxHeapHashReferenceProperty, EveryFrameMatchesReference)
{
    const auto [entries, ways] = GetParam();
    Rng rng(entries * 977 + ways);
    SetAssociativeHash hash(entries, ways);
    ReferenceSetAssociativeHash reference(entries, ways);
    EXPECT_STREQ(hash.name(), reference.name());
    EXPECT_EQ(hash.entries(), reference.entries());
    EXPECT_EQ(hash.ways(), reference.ways());

    // One survivor buffer per selector, reused across frames the way
    // the decoder reuses its own.
    std::vector<Hypothesis> got, want;
    SelectorFrameStats totals;
    for (int frame = 0; frame < 32; ++frame) {
        const auto kind = static_cast<HeapStream>(rng.below(4));
        const auto offers = heapStream(kind, rng, entries);
        hash.beginFrame();
        reference.beginFrame();
        for (const auto &h : offers) {
            hash.insert(h);
            reference.insert(h);
        }
        const float want_best = reference.finishFrame(want);
        const SelectorFrameStats &w = reference.frameStats();
        totals.merge(w);
        // A second close of the same frame must repeat the first.
        for (int close = 0; close < 2; ++close) {
            const std::string where = "frame " + std::to_string(frame) +
                " close " + std::to_string(close);
            const float best = hash.finishFrame(got);
            ASSERT_EQ(std::bit_cast<std::uint32_t>(best),
                      std::bit_cast<std::uint32_t>(want_best))
                << where;
            ASSERT_EQ(got.size(), want.size()) << where;
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_NO_FATAL_FAILURE(expectSameHypothesis(
                    got[i], want[i],
                    where + " survivor " + std::to_string(i)));
            }
            const SelectorFrameStats &g = hash.frameStats();
            ASSERT_EQ(g.insertions, w.insertions) << where;
            ASSERT_EQ(g.recombinations, w.recombinations) << where;
            ASSERT_EQ(g.collisions, w.collisions) << where;
            ASSERT_EQ(g.backupAccesses, w.backupAccesses) << where;
            ASSERT_EQ(g.overflowAccesses, w.overflowAccesses) << where;
            ASSERT_EQ(g.evictions, w.evictions) << where;
            ASSERT_EQ(g.rejections, w.rejections) << where;
            ASSERT_EQ(g.survivors, w.survivors) << where;
        }
    }
    // The streams reached every insert outcome.
    EXPECT_GT(totals.recombinations, 0u);
    EXPECT_GT(totals.evictions, 0u);
    EXPECT_GT(totals.rejections, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MaxHeapHashReferenceProperty,
    ::testing::Values(
        // One set, then many, for every associativity.
        std::make_tuple(1, 1), std::make_tuple(64, 1),
        std::make_tuple(2, 2), std::make_tuple(16, 2),
        std::make_tuple(3, 3), std::make_tuple(12, 3),
        std::make_tuple(4, 4), std::make_tuple(64, 4),
        std::make_tuple(7, 7), std::make_tuple(28, 7),
        std::make_tuple(8, 8), std::make_tuple(256, 8),
        std::make_tuple(1024, 8), std::make_tuple(16, 16),
        std::make_tuple(64, 16)));

// ---------------------------------------------------------------------
// CacheModel: geometry sweep; sequential streams larger than the cache
// always miss; streams smaller than one way's reach always hit after
// warm-up.
// ---------------------------------------------------------------------

class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>
{};

TEST_P(CacheGeometryProperty, WarmResidentSetAlwaysHits)
{
    const auto [kb, ways] = GetParam();
    CacheModel cache(CacheConfig{"c", kb * 1024, ways, 64});
    const std::size_t resident_lines = (kb * 1024 / 64) / 2;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t line = 0; line < resident_lines; ++line)
            cache.access(line * 64);
    }
    EXPECT_EQ(cache.stats().misses, resident_lines);
    EXPECT_EQ(cache.stats().hits, 2 * resident_lines);
}

TEST_P(CacheGeometryProperty, OversizedStreamMostlyMisses)
{
    const auto [kb, ways] = GetParam();
    CacheModel cache(CacheConfig{"c", kb * 1024, ways, 64});
    const std::size_t lines = 4 * kb * 1024 / 64;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t line = 0; line < lines; ++line)
            cache.access(line * 64);
    }
    EXPECT_GT(cache.stats().missRate(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(16, 2),
                      std::make_tuple(64, 4), std::make_tuple(256, 4),
                      std::make_tuple(768, 8),
                      std::make_tuple(128, 2)));

// ---------------------------------------------------------------------
// CacheModel reference equivalence: the production model (inline
// last-line fast path, shift-indexed lines, per-set tag arrays) must
// agree with the original LRU model access for access, over random,
// strided and repeating streams with flushes and stat resets mixed in.
// ---------------------------------------------------------------------

/**
 * Verbatim port of the original CacheModel::access(): one 24-byte Line
 * per way, divide/modulo set indexing, and a way loop that hits on a
 * valid matching tag and otherwise fills the last empty way, else the
 * least recently used one.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), clock_(0)
    {
        sets_ = config.sizeBytes / (config.lineBytes * config.ways);
        lines_.resize(sets_ * config.ways);
    }

    bool
    access(std::uint64_t address)
    {
        ++clock_;
        const std::uint64_t line_addr = address / config_.lineBytes;
        const std::uint64_t set = line_addr % sets_;
        const std::uint64_t tag = line_addr / sets_;

        Line *base = &lines_[set * config_.ways];
        Line *victim = base;
        for (std::size_t w = 0; w < config_.ways; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = clock_;
                ++stats_.hits;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lastUse < victim->lastUse) {
                victim = &line;
            }
        }

        ++stats_.misses;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = clock_;
        return false;
    }

    void
    flush()
    {
        for (auto &line : lines_)
            line.valid = false;
    }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::size_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_;
    CacheStats stats_;
};

/** (size bytes, ways, line bytes). */
class CacheReferenceProperty
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>>
{};

TEST_P(CacheReferenceProperty, EveryAccessMatchesReferenceModel)
{
    const auto [bytes, ways, line_bytes] = GetParam();
    const CacheConfig config{"c", bytes, ways, line_bytes};
    CacheModel model(config);
    ReferenceCache reference(config);
    Rng rng(bytes * 131 + ways * 7 + line_bytes);

    std::size_t accesses = 0;
    const auto step = [&](std::uint64_t address) {
        if (HasFatalFailure())
            return;
        const bool expected = reference.access(address);
        ASSERT_EQ(model.access(address), expected)
            << "access " << accesses << " address " << address;
        ++accesses;
    };

    // Addresses span ~4x the capacity so streams both hit and evict.
    const std::uint64_t span = 4 * bytes;
    std::uint64_t frame = 0;
    for (int segment = 0; segment < 400; ++segment) {
        switch (rng.below(7)) {
          case 0: // seeded random addresses, a few far out of range
            for (int i = 0; i < 200; ++i) {
                step(rng.chance(0.05) ? rng.next() >> 4
                                      : rng.below(span));
            }
            break;
          case 1: // 10 B records: arc runs of one expanded state
            for (int run = 0; run < 40; ++run) {
                std::uint64_t a = rng.below(span / 10);
                const std::uint64_t end = a + rng.below(24);
                for (; a < end; ++a)
                    step(4096 + a * 10);
            }
            break;
          case 2: // 12 B records: one frame's lattice writes
            for (std::uint64_t w = 1; w <= 300; ++w)
                step((frame * 4096 + w) * 12);
            ++frame;
            break;
          case 3: // repeats of one line, by the same and other bytes
            for (int i = 0; i < 20; ++i) {
                const std::uint64_t a = rng.below(span);
                const std::uint64_t repeats = 1 + rng.below(8);
                for (std::uint64_t r = 0; r < repeats; ++r)
                    step(a - a % line_bytes + rng.below(line_bytes));
            }
            break;
          case 4: // one set's worth of conflicting lines, revisited
            for (int i = 0; i < 50; ++i) {
                const std::uint64_t sets = bytes / (line_bytes * ways);
                step(rng.below(2 * ways + 1) * sets * line_bytes);
            }
            break;
          case 5:
            model.flush();
            reference.flush();
            break;
          case 6:
            EXPECT_EQ(model.stats().hits, reference.stats().hits);
            EXPECT_EQ(model.stats().misses, reference.stats().misses);
            model.resetStats();
            reference.resetStats();
            break;
        }
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(accesses, 10000u);
    EXPECT_EQ(model.stats().hits, reference.stats().hits);
    EXPECT_EQ(model.stats().misses, reference.stats().misses);

    // A copy carries the cache contents and the last-line memo: it
    // keeps agreeing with the reference from where the original was.
    CacheModel copy = model;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t address =
            i % 3 == 0 ? rng.below(span) : 4096 + (i / 3) * 10;
        ASSERT_EQ(copy.access(address), reference.access(address))
            << "copy access " << i;
    }
    EXPECT_EQ(copy.stats().hits, reference.stats().hits);
    EXPECT_EQ(copy.stats().misses, reference.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceProperty,
    ::testing::Values(
        // Scaled platform caches (the 48 KB arc cache has 96 sets).
        std::make_tuple(16 * 1024, 4, 64),
        std::make_tuple(48 * 1024, 8, 64),
        std::make_tuple(8 * 1024, 2, 64),
        // Table III (the 768 KB arc cache has 1536 sets).
        std::make_tuple(256 * 1024, 4, 64),
        std::make_tuple(768 * 1024, 8, 64),
        std::make_tuple(128 * 1024, 2, 64),
        // Tiny, odd set counts, direct-mapped, fully associative,
        // wide sets and other line sizes.
        std::make_tuple(768, 4, 64), std::make_tuple(640, 2, 64),
        std::make_tuple(4 * 1024, 1, 64), std::make_tuple(64, 1, 64),
        std::make_tuple(2 * 1024, 32, 64),
        std::make_tuple(6 * 1024, 3, 64),
        std::make_tuple(3 * 1024, 16, 16),
        std::make_tuple(96 * 1024, 6, 128)));

// ---------------------------------------------------------------------
// xorFoldHash: every index width covers its whole range on dense keys,
// and equals the full-width fold on keys of every length.
// ---------------------------------------------------------------------

class XorFoldProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(XorFoldProperty, CoversRangeAndStaysInBounds)
{
    const unsigned bits = GetParam();
    const std::uint32_t buckets = 1u << bits;
    std::set<std::uint32_t> seen;
    for (std::uint64_t key = 0; key < 8ull * buckets; ++key) {
        const std::uint32_t h = xorFoldHash(key, bits);
        ASSERT_LT(h, buckets);
        seen.insert(h);
    }
    EXPECT_GT(seen.size(), buckets * 9 / 10);
}

TEST_P(XorFoldProperty, MatchesFullWidthFold)
{
    // The fold stops once the key's remaining bits are all zero; the
    // index must equal folding all 64 bits, for keys of every length.
    const unsigned bits = GetParam();
    Rng rng(4000 + bits);
    for (std::uint64_t key : {0ull, 1ull, ~0ull, 1ull << 63}) {
        ASSERT_EQ(xorFoldHash(key, bits), fullWidthXorFold(key, bits))
            << "key " << key;
    }
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.next() >> rng.below(64);
        ASSERT_EQ(xorFoldHash(key, bits), fullWidthXorFold(key, bits))
            << "key " << key;
    }
}

INSTANTIATE_TEST_SUITE_P(IndexWidths, XorFoldProperty,
                         ::testing::Range(0u, 21u));

// ---------------------------------------------------------------------
// Edit distance: metric-style properties on random sequences.
// ---------------------------------------------------------------------

class EditDistanceProperty : public ::testing::TestWithParam<int>
{};

TEST_P(EditDistanceProperty, IdentityAndSymmetryAndBound)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::uint32_t> a(rng.below(20));
        std::vector<std::uint32_t> b(rng.below(20));
        for (auto &x : a)
            x = static_cast<std::uint32_t>(rng.below(5));
        for (auto &x : b)
            x = static_cast<std::uint32_t>(rng.below(5));

        // d(a, a) == 0.
        EXPECT_EQ(alignSequences(a, a).errors(), 0u);
        // Total edit distance is symmetric (the ins/del decomposition
        // of a minimal path is not unique, so only totals compare).
        const EditStats ab = alignSequences(a, b);
        const EditStats ba = alignSequences(b, a);
        EXPECT_EQ(ab.errors(), ba.errors());
        // Length conservation: ref - deletions + insertions == hyp.
        EXPECT_EQ(a.size() - ab.deletions + ab.insertions, b.size());
        EXPECT_EQ(b.size() - ba.deletions + ba.insertions, a.size());
        EXPECT_LE(ab.substitutions, std::min(a.size(), b.size()));
        // Bounded by max length; at least the length difference.
        EXPECT_LE(ab.errors(), std::max(a.size(), b.size()));
        EXPECT_GE(ab.errors(),
                  a.size() > b.size() ? a.size() - b.size()
                                      : b.size() - a.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// MagnitudePruner: pruned fraction is monotone in the quality
// parameter and the target search converges over the whole range.
// ---------------------------------------------------------------------

class PrunerMonotonicityProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PrunerMonotonicityProperty, FractionMonotoneInQuality)
{
    Rng rng(GetParam());
    TopologyConfig config;
    config.inputDim = 12;
    config.fcWidth = 32;
    config.poolGroup = 2;
    config.hiddenBlocks = 1;
    config.classes = 6;
    Mlp mlp = KaldiTopology::build(config, rng);

    double prev = -1.0;
    for (double quality : {0.2, 0.6, 1.0, 1.5, 2.0, 3.0}) {
        Mlp probe = mlp.clone();
        const double frac =
            MagnitudePruner(quality).prune(probe).globalPrunedFraction();
        EXPECT_GE(frac, prev);
        prev = frac;
    }
    for (double target : {0.3, 0.6, 0.85, 0.95}) {
        const double quality =
            MagnitudePruner::findQualityForTarget(mlp, target, 0.02);
        Mlp probe = mlp.clone();
        EXPECT_NEAR(
            MagnitudePruner(quality).prune(probe).globalPrunedFraction(),
            target, 0.04);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunerMonotonicityProperty,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------
// Selector equivalence: on streams without capacity pressure, every
// bounded selector matches the unbounded one exactly.
// ---------------------------------------------------------------------

class SelectorEquivalenceProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SelectorEquivalenceProperty, NoPressureMeansNoLoss)
{
    Rng rng(GetParam());
    UnboundedSelector unbounded;
    AccurateNBest accurate(512);
    SetAssociativeHash hash(512, 8);

    for (int frame = 0; frame < 3; ++frame) {
        unbounded.beginFrame();
        accurate.beginFrame();
        hash.beginFrame();
        // <= 40 distinct states: far below every capacity, and below
        // the per-set worst case for 64 sets.
        for (int i = 0; i < 120; ++i) {
            Hypothesis h{static_cast<StateId>(rng.below(40)),
                         static_cast<float>(rng.uniform(0.0, 100.0)),
                         0};
            unbounded.insert(h);
            accurate.insert(h);
            hash.insert(h);
        }
        auto a = unbounded.finishFrame();
        auto b = accurate.finishFrame();
        auto c = hash.finishFrame();

        auto canonical = [](std::vector<Hypothesis> v) {
            std::sort(v.begin(), v.end(),
                      [](const Hypothesis &x, const Hypothesis &y) {
                          return x.state < y.state;
                      });
            return v;
        };
        a = canonical(a);
        b = canonical(b);
        c = canonical(c);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(a.size(), c.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].state, b[i].state);
            EXPECT_EQ(a[i].cost, b[i].cost);
            EXPECT_EQ(a[i].state, c[i].state);
            EXPECT_EQ(a[i].cost, c[i].cost);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorEquivalenceProperty,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------
// Fault isolation: injecting faults into an utterance subset S leaves
// every utterance outside S byte-identical — transcripts, scores and
// the deterministic fault telemetry — at every worker count.
// ---------------------------------------------------------------------

/** One trained context per corpus seed, shared across parameters. */
ExperimentContext &
faultContext(std::uint64_t corpus_seed)
{
    static std::map<std::uint64_t, std::unique_ptr<ExperimentContext>>
        contexts;
    auto &slot = contexts[corpus_seed];
    if (!slot)
        slot = std::make_unique<ExperimentContext>(
            miniSetup(corpus_seed));
    return *slot;
}

std::uint64_t
faultCounterValue(const char *name)
{
    const auto snap = telemetry::MetricRegistry::global().snapshot();
    const auto *c = snap.findCounter(name);
    return c ? c->value : 0;
}

class FaultIsolationProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, SearchMode>>
{};

TEST_P(FaultIsolationProperty, NonFaultedUtterancesAreByteIdentical)
{
    const auto [corpus_seed, threads, mode] = GetParam();
    auto &ctx = faultContext(corpus_seed);
    const SystemConfig config =
        ctx.setup.configFor(mode, PruneLevel::None);
    const auto utts =
        ctx.corpus.sampleUtterances(6, corpus_seed * 17 + 5);
    const std::set<std::size_t> faulted_set = {1, 4};

    // Fault-free per-utterance baseline (transcript + scores).
    FaultInjector::global().disarm();
    std::map<std::size_t, UtteranceRun> clean;
    std::vector<Utterance> healthy;
    for (std::size_t i = 0; i < utts.size(); ++i) {
        if (faulted_set.count(i))
            continue;
        clean[i] = ctx.system.runUtterance(utts[i], config);
        healthy.push_back(utts[i]);
    }
    const TestSetResult clean_subset =
        ctx.system.runTestSet(healthy, config);

    // Decoder probes are keyed purely by utterance id, so the rules
    // below can never reach an utterance outside S.
    FaultPlan plan;
    {
        FaultRule rule;
        rule.probe = "decoder.decode";
        rule.kind = FaultKind::Timeout;
        rule.keys = {utts[1].id};
        plan.rules.push_back(rule);
        rule.kind = FaultKind::AllocFail;
        rule.keys = {utts[4].id};
        plan.rules.push_back(rule);
    }
    ScopedFaultPlan scoped(std::move(plan));

    const std::uint64_t injected_before =
        faultCounterValue("fault.injected");
    const std::uint64_t degraded_before =
        faultCounterValue("fault.degraded");
    const TestSetResult result =
        ctx.system.runTestSet(utts, config, threads);

    // Exactly S degraded, with causes; deterministic telemetry.
    EXPECT_EQ(result.degraded, faulted_set.size());
    ASSERT_EQ(result.outcomes.size(), utts.size());
    for (std::size_t i = 0; i < utts.size(); ++i)
        EXPECT_EQ(result.outcomes[i].empty(), !faulted_set.count(i))
            << i;
    EXPECT_EQ(faultCounterValue("fault.injected"),
              injected_before + faulted_set.size());
    EXPECT_EQ(faultCounterValue("fault.degraded"),
              degraded_before + faulted_set.size());

    // Aggregates over the healthy utterances are bit-identical to the
    // fault-free subset run (input-order merge).
    EXPECT_EQ(result.wer.substitutions, clean_subset.wer.substitutions);
    EXPECT_EQ(result.wer.insertions, clean_subset.wer.insertions);
    EXPECT_EQ(result.wer.deletions, clean_subset.wer.deletions);
    EXPECT_EQ(result.wer.referenceLength,
              clean_subset.wer.referenceLength);
    EXPECT_EQ(result.frames, clean_subset.frames);
    EXPECT_EQ(result.survivors, clean_subset.survivors);
    EXPECT_EQ(result.generated, clean_subset.generated);
    EXPECT_DOUBLE_EQ(result.meanConfidence,
                     clean_subset.meanConfidence);
    EXPECT_DOUBLE_EQ(result.dnn.joules, clean_subset.dnn.joules);
    EXPECT_DOUBLE_EQ(result.viterbi.joules,
                     clean_subset.viterbi.joules);

    // With the plan still armed, every utterance outside S decodes to
    // the byte-identical transcript and scores of the fault-free run.
    for (const auto &[i, baseline] : clean) {
        const UtteranceRun run =
            ctx.system.runUtterance(utts[i], config);
        EXPECT_FALSE(run.degraded) << i;
        EXPECT_EQ(run.decode.words, baseline.decode.words) << i;
        EXPECT_DOUBLE_EQ(run.meanConfidence, baseline.meanConfidence)
            << i;
        EXPECT_EQ(run.frames, baseline.frames) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, FaultIsolationProperty,
    ::testing::Combine(::testing::Values(777, 1234),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(SearchMode::Baseline)));

// The frame-adaptive software selectors must honour the same isolation
// contract: their per-utterance state (the entropy EMA in particular)
// resets at utterance start, so a faulted neighbour cannot perturb
// healthy decodes at any worker count.
INSTANTIATE_TEST_SUITE_P(
    AdaptiveSelectors, FaultIsolationProperty,
    ::testing::Combine(::testing::Values(777),
                       ::testing::Values(1, 4),
                       ::testing::Values(SearchMode::RelativeThreshold,
                                         SearchMode::AdaptiveBeam)));

// ---------------------------------------------------------------------
// Decode seed equivalence: the overhauled hot path (trace arena,
// devirtualized kernel, double-buffered tokens, fused beam scan) must
// reproduce the seed decode loop bit for bit — words, costs, per-frame
// activity and selector counters — for every selector, with and
// without an observer, and inside a faulted multi-threaded sweep.
// ---------------------------------------------------------------------

/**
 * Verbatim port of the seed (pre-overhaul) UnboundedSelector: one
 * std::unordered_map per frame with *online* region classification at
 * insert time. The production selector defers classification to a
 * replay in finishFrame; the two must agree counter for counter.
 */
class SeedUnboundedSelector : public HypothesisSelector
{
  public:
    SeedUnboundedSelector(std::size_t direct_entries,
                          std::size_t backup_entries)
        : backupEntries_(backup_entries),
          indexBits_(floorLog2(direct_entries)),
          directOwner_(direct_entries, 0),
          directValid_(direct_entries, 0), backupUsed_(0)
    {}

    void
    beginFrame() override
    {
        stats_ = SelectorFrameStats{};
        table_.clear();
        std::fill(directValid_.begin(), directValid_.end(), 0);
        backupUsed_ = 0;
    }

    void
    insert(const Hypothesis &hyp) override
    {
        ++stats_.insertions;
        auto it = table_.find(hyp.state);
        if (it != table_.end()) {
            ++stats_.recombinations;
            if (it->second.region == Region::Backup)
                ++stats_.backupAccesses;
            else if (it->second.region == Region::Overflow)
                ++stats_.overflowAccesses;
            if (hyp.cost < it->second.hyp.cost)
                it->second.hyp = hyp;
            return;
        }

        const std::uint32_t idx = xorFoldHash(hyp.state, indexBits_);
        Region region;
        if (!directValid_[idx]) {
            directValid_[idx] = 1;
            directOwner_[idx] = hyp.state;
            region = Region::Direct;
        } else {
            ++stats_.collisions;
            if (backupUsed_ < backupEntries_) {
                ++backupUsed_;
                ++stats_.backupAccesses;
                region = Region::Backup;
            } else {
                ++stats_.overflowAccesses;
                region = Region::Overflow;
            }
        }
        table_.emplace(hyp.state, Slot{hyp, region});
    }

    float
    finishFrame(std::vector<Hypothesis> &out) override
    {
        out.clear();
        out.reserve(table_.size());
        float best = std::numeric_limits<float>::infinity();
        for (const auto &[state, slot] : table_) {
            out.push_back(slot.hyp);
            best = std::min(best, slot.hyp.cost);
        }
        stats_.survivors = out.size();
        return best;
    }

    using HypothesisSelector::finishFrame;

    const char *name() const override { return "seed-unbounded"; }

  private:
    enum class Region : std::uint8_t { Direct, Backup, Overflow };

    struct Slot
    {
        Hypothesis hyp;
        Region region;
    };

    std::size_t backupEntries_;
    unsigned indexBits_;
    std::vector<StateId> directOwner_;
    std::vector<std::uint8_t> directValid_;
    std::unordered_map<StateId, Slot> table_;
    std::size_t backupUsed_;
};

/**
 * Verbatim port of the seed decode loop: append-only trace vector,
 * per-frame best-cost rescans, a fresh survivor vector per frame and
 * virtual selector calls throughout.
 */
DecodeResult
referenceDecode(const Wfst &fst, const DecoderConfig &config,
                const AcousticScores &scores,
                HypothesisSelector &selector)
{
    DecodeResult result;
    const std::size_t frames = scores.frameCount();
    if (frames == 0)
        return result;

    std::vector<TraceNode> &trace = result.trace;
    trace.push_back({kEpsilon, 0});

    std::vector<Hypothesis> active;
    active.push_back({fst.start(), 0.0f, 0});

    result.frames.resize(frames);

    const auto fill_totals = [&result] {
        for (const auto &f : result.frames) {
            result.generatedTotal += f.generated;
            result.survivorTotal += f.survivors;
            result.survivorPeak =
                std::max(result.survivorPeak, f.survivors);
        }
    };

    for (std::size_t t = 0; t < frames; ++t) {
        FrameActivity &activity = result.frames[t];
        float best = std::numeric_limits<float>::infinity();
        for (const auto &h : active)
            best = std::min(best, h.cost);
        const float lattice_beam = best + config.beam;

        selector.beginFrame();
        for (const auto &token : active) {
            if (token.cost > lattice_beam)
                continue;
            ++activity.expanded;
            const std::size_t end = fst.arcEnd(token.state);
            for (std::size_t a = fst.arcBegin(token.state); a < end;
                 ++a) {
                const Arc &arc = fst.arc(a);
                Hypothesis hyp;
                hyp.state = arc.dest;
                hyp.cost = token.cost + arc.weight +
                    scores.cost(t, arc.ilabel);
                if (arc.olabel != kEpsilon) {
                    hyp.trace =
                        static_cast<std::uint32_t>(trace.size());
                    trace.push_back({arc.olabel, token.trace});
                } else {
                    hyp.trace = token.trace;
                }
                selector.insert(hyp);
                ++activity.generated;
            }
        }

        active = selector.finishFrame();
        activity.selector = selector.frameStats();
        activity.survivors = active.size();
        if (active.empty()) {
            fill_totals();
            return result;
        }
    }

    result.finalTokens = active;

    const Hypothesis *best_final = nullptr;
    float best_final_cost = std::numeric_limits<float>::infinity();
    const Hypothesis *best_any = nullptr;
    float best_any_cost = std::numeric_limits<float>::infinity();
    for (const auto &h : active) {
        if (h.cost < best_any_cost) {
            best_any_cost = h.cost;
            best_any = &h;
        }
        const float final_cost = fst.finalCost(h.state);
        if (final_cost != kInfinityCost &&
            h.cost + final_cost < best_final_cost) {
            best_final_cost = h.cost + final_cost;
            best_final = &h;
        }
    }

    const Hypothesis *winner = best_final ? best_final : best_any;
    result.reachedFinal = best_final != nullptr;
    result.totalCost = best_final ? best_final_cost : best_any_cost;
    result.words = result.backtrace(winner->trace);
    fill_totals();
    return result;
}

void
expectSameDecode(const DecodeResult &got, const DecodeResult &want,
                 const std::string &label)
{
    EXPECT_EQ(got.words, want.words) << label;
    EXPECT_DOUBLE_EQ(got.totalCost, want.totalCost) << label;
    EXPECT_EQ(got.reachedFinal, want.reachedFinal) << label;
    ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
    for (std::size_t t = 0; t < want.frames.size(); ++t) {
        const FrameActivity &g = got.frames[t];
        const FrameActivity &w = want.frames[t];
        ASSERT_EQ(g.generated, w.generated) << label << " frame " << t;
        ASSERT_EQ(g.expanded, w.expanded) << label << " frame " << t;
        ASSERT_EQ(g.survivors, w.survivors) << label << " frame " << t;
        ASSERT_EQ(g.selector.insertions, w.selector.insertions)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.recombinations, w.selector.recombinations)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.collisions, w.selector.collisions)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.backupAccesses, w.selector.backupAccesses)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.overflowAccesses,
                  w.selector.overflowAccesses)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.evictions, w.selector.evictions)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.rejections, w.selector.rejections)
            << label << " frame " << t;
    }
    EXPECT_EQ(got.totalGenerated(), want.totalGenerated()) << label;
    EXPECT_EQ(got.totalSurvivors(), want.totalSurvivors()) << label;
    EXPECT_EQ(got.maxSurvivorsPerFrame(), want.maxSurvivorsPerFrame())
        << label;
    // The arena appends exactly the node stream the seed appended
    // (sentinel excluded); collection can only shrink what is retained.
    EXPECT_EQ(got.traceStats.allocated, want.trace.size() - 1) << label;
    EXPECT_LE(got.trace.size(), want.trace.size()) << label;
}

TEST(DecodeSeedEquivalence, AllSelectorsBitIdentical)
{
    auto &ctx = faultContext(777);
    FaultInjector::global().disarm();
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const DecoderConfig dc{config.beam};
    const ViterbiDecoder decoder(ctx.fst, dc);
    const auto &vc = ctx.system.platform().viterbiBaseline;

    for (const auto &utt : ctx.testSet) {
        const auto scores = ctx.system.scoresFor(utt, config.prune);

        // Unbounded: devirtualized kernel + deferred stats replay vs
        // the seed's virtual loop + online classification.
        UnboundedSelector unbounded(vc.hashEntries, vc.backupEntries);
        SeedUnboundedSelector seed_unbounded(vc.hashEntries,
                                             vc.backupEntries);
        const DecodeResult want =
            referenceDecode(ctx.fst, dc, *scores, seed_unbounded);
        expectSameDecode(decoder.decode(*scores, unbounded), want,
                         "unbounded");

        // Observer attached (empty tee): the kObserved instantiation
        // must not perturb anything.
        UnboundedSelector unbounded2(vc.hashEntries, vc.backupEntries);
        TeeSearchObserver tee(nullptr, nullptr);
        expectSameDecode(decoder.decode(*scores, unbounded2, &tee),
                         want, "unbounded+observer");

        // The three bounded selectors run the generic kernel; the
        // reference runs the same selector through the seed loop, so
        // any divergence is the kernel's fault.
        AccurateNBest accurate(128), accurate_ref(128);
        expectSameDecode(
            decoder.decode(*scores, accurate),
            referenceDecode(ctx.fst, dc, *scores, accurate_ref),
            "accurate");

        DirectMappedHash direct(256), direct_ref(256);
        expectSameDecode(
            decoder.decode(*scores, direct),
            referenceDecode(ctx.fst, dc, *scores, direct_ref),
            "direct");

        SetAssociativeHash setassoc(256, 8), setassoc_ref(256, 8);
        const DecodeResult want_sa =
            referenceDecode(ctx.fst, dc, *scores, setassoc_ref);
        expectSameDecode(decoder.decode(*scores, setassoc), want_sa,
                         "setassoc");
        SetAssociativeHash setassoc2(256, 8);
        TeeSearchObserver tee2(nullptr, nullptr);
        expectSameDecode(decoder.decode(*scores, setassoc2, &tee2),
                         want_sa, "setassoc+observer");

        // The frame-adaptive selectors run their dedicated
        // devirtualized instantiations; a fresh instance's constructor
        // state equals its post-startUtterance() state, so the seed
        // loop (which never calls the hook) is a valid reference.
        RelativeThresholdSelector rel(10.0f, 256), rel_ref(10.0f, 256);
        expectSameDecode(
            decoder.decode(*scores, rel),
            referenceDecode(ctx.fst, dc, *scores, rel_ref),
            "relative-threshold");

        AdaptiveBeamSelector adaptive(6.0f, 12.0f);
        AdaptiveBeamSelector adaptive_ref(6.0f, 12.0f);
        expectSameDecode(
            decoder.decode(*scores, adaptive),
            referenceDecode(ctx.fst, dc, *scores, adaptive_ref),
            "adaptive-beam");
    }
}

class DecodeEquivalenceThreadsProperty
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DecodeEquivalenceThreadsProperty,
       FaultedSweepMatchesReferenceAggregates)
{
    const std::size_t threads = GetParam();
    auto &ctx = faultContext(777);
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const auto utts = ctx.corpus.sampleUtterances(6, 2024);
    const std::size_t faulted = 2;

    // Expected healthy aggregates from the seed decode loop.
    FaultInjector::global().disarm();
    const auto &vc = ctx.system.platform().viterbiBaseline;
    std::uint64_t frames = 0, survivors = 0, generated = 0;
    std::vector<std::vector<WordId>> hyps, refs;
    for (std::size_t i = 0; i < utts.size(); ++i) {
        if (i == faulted)
            continue;
        const auto scores = ctx.system.scoresFor(utts[i], config.prune);
        SeedUnboundedSelector seed(vc.hashEntries, vc.backupEntries);
        const DecodeResult want = referenceDecode(
            ctx.fst, DecoderConfig{config.beam}, *scores, seed);
        frames += want.frames.size();
        survivors += want.totalSurvivors();
        generated += want.totalGenerated();
        hyps.push_back(want.words);
        refs.push_back(utts[i].words);
    }
    const EditStats wer = scoreTranscripts(hyps, refs);

    // A timed-out decode on one utterance must not disturb the other
    // utterances' (production) decodes at any worker count.
    FaultPlan plan;
    FaultRule rule;
    rule.probe = "decoder.decode";
    rule.kind = FaultKind::Timeout;
    rule.keys = {utts[faulted].id};
    plan.rules.push_back(rule);
    ScopedFaultPlan scoped(std::move(plan));

    const TestSetResult result =
        ctx.system.runTestSet(utts, config, threads);
    EXPECT_EQ(result.degraded, 1u);
    EXPECT_EQ(result.frames, frames);
    EXPECT_EQ(result.survivors, survivors);
    EXPECT_EQ(result.generated, generated);
    EXPECT_EQ(result.wer.substitutions, wer.substitutions);
    EXPECT_EQ(result.wer.insertions, wer.insertions);
    EXPECT_EQ(result.wer.deletions, wer.deletions);
    EXPECT_EQ(result.wer.referenceLength, wer.referenceLength);
}

INSTANTIATE_TEST_SUITE_P(Threads, DecodeEquivalenceThreadsProperty,
                         ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------
// Streaming decode: any chunking of advanceFrames must reproduce the
// batch decode() bit-identically — words, total cost, per-frame
// counters, trace accounting — for every selector family. Chunk
// boundaries are pure call-boundary artifacts; the per-frame kernel is
// shared, so divergence here means the streaming seam grew arithmetic
// of its own.
// ---------------------------------------------------------------------

/** Full bit-identity between a streaming and a batch decode of the
 *  same frames with equivalent selectors. */
void
expectSameStreamDecode(const DecodeResult &got, const DecodeResult &want,
                       const std::string &label)
{
    EXPECT_EQ(got.words, want.words) << label;
    EXPECT_DOUBLE_EQ(got.totalCost, want.totalCost) << label;
    EXPECT_EQ(got.reachedFinal, want.reachedFinal) << label;
    ASSERT_EQ(got.frames.size(), want.frames.size()) << label;
    for (std::size_t t = 0; t < want.frames.size(); ++t) {
        const FrameActivity &g = got.frames[t];
        const FrameActivity &w = want.frames[t];
        ASSERT_EQ(g.generated, w.generated) << label << " frame " << t;
        ASSERT_EQ(g.expanded, w.expanded) << label << " frame " << t;
        ASSERT_EQ(g.survivors, w.survivors) << label << " frame " << t;
        ASSERT_EQ(g.selector.insertions, w.selector.insertions)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.recombinations, w.selector.recombinations)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.evictions, w.selector.evictions)
            << label << " frame " << t;
        ASSERT_EQ(g.selector.rejections, w.selector.rejections)
            << label << " frame " << t;
    }
    EXPECT_EQ(got.totalGenerated(), want.totalGenerated()) << label;
    EXPECT_EQ(got.totalSurvivors(), want.totalSurvivors()) << label;
    EXPECT_EQ(got.maxSurvivorsPerFrame(), want.maxSurvivorsPerFrame())
        << label;
    EXPECT_EQ(got.traceStats.allocated, want.traceStats.allocated)
        << label;
    EXPECT_EQ(got.traceStats.collected, want.traceStats.collected)
        << label;
    EXPECT_EQ(got.traceStats.gcRuns, want.traceStats.gcRuns) << label;
    EXPECT_EQ(got.traceStats.peakLive, want.traceStats.peakLive)
        << label;
    ASSERT_EQ(got.trace.size(), want.trace.size()) << label;
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
        EXPECT_EQ(got.trace[i].word, want.trace[i].word)
            << label << " node " << i;
        EXPECT_EQ(got.trace[i].prev, want.trace[i].prev)
            << label << " node " << i;
    }
    ASSERT_EQ(got.finalTokens.size(), want.finalTokens.size()) << label;
    for (std::size_t i = 0; i < want.finalTokens.size(); ++i) {
        EXPECT_EQ(got.finalTokens[i].state, want.finalTokens[i].state)
            << label << " token " << i;
        EXPECT_EQ(got.finalTokens[i].cost, want.finalTokens[i].cost)
            << label << " token " << i;
    }
}

/** Chunk size per advanceFrames call; 0 = the whole utterance. */
class StreamingChunkProperty
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(StreamingChunkProperty, ChunkedDecodeMatchesBatch)
{
    const std::size_t chunk_param = GetParam();
    auto &ctx = faultContext(777);
    FaultInjector::global().disarm();
    const SystemConfig config =
        ctx.setup.configFor(SearchMode::Baseline, PruneLevel::P90);
    const DecoderConfig dc{config.beam};
    const ViterbiDecoder decoder(ctx.fst, dc);
    const auto &vc = ctx.system.platform().viterbiBaseline;

    const auto streamed = [&](const AcousticScores &scores,
                              HypothesisSelector &selector) {
        ViterbiStream stream = decoder.startUtterance(selector);
        const std::size_t frames = scores.frameCount();
        const std::size_t chunk =
            chunk_param ? chunk_param : std::max<std::size_t>(frames, 1);
        for (std::size_t begin = 0; begin < frames; begin += chunk) {
            const std::size_t end = std::min(frames, begin + chunk);
            stream.advanceFrames(scores, begin, end);
            const PartialHypothesis partial = stream.partial();
            EXPECT_EQ(partial.frames, stream.frames());
            if (!stream.dead()) {
                EXPECT_LT(partial.cost,
                          std::numeric_limits<float>::infinity());
            }
        }
        return stream;
    };

    for (const auto &utt : ctx.testSet) {
        const auto scores = ctx.system.scoresFor(utt, config.prune);

        UnboundedSelector ub(vc.hashEntries, vc.backupEntries);
        UnboundedSelector ub_stream(vc.hashEntries, vc.backupEntries);
        const DecodeResult want_ub = decoder.decode(*scores, ub);
        ViterbiStream s_ub = streamed(*scores, ub_stream);
        // After the last frame, the cheapest active token is the
        // batch winner whenever no token reached a final state.
        const PartialHypothesis last = s_ub.partial();
        if (!s_ub.dead() && !want_ub.reachedFinal) {
            EXPECT_EQ(last.words, want_ub.words);
            EXPECT_DOUBLE_EQ(last.cost, want_ub.totalCost);
        }
        expectSameStreamDecode(s_ub.finishUtterance(), want_ub,
                               "unbounded");

        AccurateNBest acc(128), acc_stream(128);
        const DecodeResult want_acc = decoder.decode(*scores, acc);
        expectSameStreamDecode(
            streamed(*scores, acc_stream).finishUtterance(), want_acc,
            "accurate");

        DirectMappedHash dm(256), dm_stream(256);
        const DecodeResult want_dm = decoder.decode(*scores, dm);
        expectSameStreamDecode(
            streamed(*scores, dm_stream).finishUtterance(), want_dm,
            "direct");

        SetAssociativeHash sa(256, 8), sa_stream(256, 8);
        const DecodeResult want_sa = decoder.decode(*scores, sa);
        expectSameStreamDecode(
            streamed(*scores, sa_stream).finishUtterance(), want_sa,
            "setassoc");

        RelativeThresholdSelector rt(10.0f, 256);
        RelativeThresholdSelector rt_stream(10.0f, 256);
        const DecodeResult want_rt = decoder.decode(*scores, rt);
        expectSameStreamDecode(
            streamed(*scores, rt_stream).finishUtterance(), want_rt,
            "relative-threshold");

        // The entropy EMA crosses chunk boundaries; identical results
        // at every chunking prove the streaming arm carries it intact.
        AdaptiveBeamSelector ab(6.0f, 12.0f);
        AdaptiveBeamSelector ab_stream(6.0f, 12.0f);
        const DecodeResult want_ab = decoder.decode(*scores, ab);
        expectSameStreamDecode(
            streamed(*scores, ab_stream).finishUtterance(), want_ab,
            "adaptive-beam");
    }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamingChunkProperty,
                         ::testing::Values(1, 7, 0));

// ---------------------------------------------------------------------
// Adaptive-selector thread invariance: runTestSet aggregates under the
// frame-adaptive software selectors are bit-identical at every worker
// count (input-order merge + per-utterance selector state).
// ---------------------------------------------------------------------

class AdaptiveSelectorThreadsProperty
    : public ::testing::TestWithParam<
          std::tuple<SearchMode, std::size_t>>
{};

TEST_P(AdaptiveSelectorThreadsProperty, AggregatesMatchSingleThread)
{
    const auto [mode, threads] = GetParam();
    auto &ctx = faultContext(777);
    FaultInjector::global().disarm();
    const SystemConfig config =
        ctx.setup.configFor(mode, PruneLevel::P90);
    const auto utts = ctx.corpus.sampleUtterances(6, 4242);

    const TestSetResult want = ctx.system.runTestSet(utts, config, 1);
    const TestSetResult got =
        ctx.system.runTestSet(utts, config, threads);
    EXPECT_EQ(got.wer.substitutions, want.wer.substitutions);
    EXPECT_EQ(got.wer.insertions, want.wer.insertions);
    EXPECT_EQ(got.wer.deletions, want.wer.deletions);
    EXPECT_EQ(got.wer.referenceLength, want.wer.referenceLength);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.survivors, want.survivors);
    EXPECT_EQ(got.generated, want.generated);
    EXPECT_DOUBLE_EQ(got.meanConfidence, want.meanConfidence);
    EXPECT_DOUBLE_EQ(got.dnn.joules, want.dnn.joules);
    EXPECT_DOUBLE_EQ(got.viterbi.joules, want.viterbi.joules);
    EXPECT_DOUBLE_EQ(got.dnn.seconds, want.dnn.seconds);
    EXPECT_DOUBLE_EQ(got.viterbi.seconds, want.viterbi.seconds);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndThreads, AdaptiveSelectorThreadsProperty,
    ::testing::Combine(::testing::Values(SearchMode::RelativeThreshold,
                                         SearchMode::AdaptiveBeam),
                       ::testing::Values(2, 4)));

// ---------------------------------------------------------------------
// Chunked acoustic scoring: ScoreMatrixBuilder must reproduce
// AcousticScores::fromEngine bit-identically — every cost row and the
// mean confidence — for ANY sequence of scoreTo() boundaries, and
// ScoreStream must commit the finished matrix to the same caches
// scoresFor fills. This is the scoring half of the pipelined-serving
// contract: chunk boundaries are call-boundary artifacts, never
// arithmetic.
// ---------------------------------------------------------------------

/** Frames per scoring window; 0 = the whole utterance at once. */
class ChunkedScoringProperty
    : public ::testing::TestWithParam<std::size_t>
{};

/** Bitwise row-level equality of two complete score matrices. */
void
expectSameScores(const AcousticScores &got, const AcousticScores &want,
                 const std::string &label)
{
    ASSERT_EQ(got.frameCount(), want.frameCount()) << label;
    ASSERT_EQ(got.classCount(), want.classCount()) << label;
    for (std::size_t t = 0; t < want.frameCount(); ++t) {
        ASSERT_EQ(std::memcmp(got.row(t), want.row(t),
                              want.classCount() * sizeof(float)),
                  0)
            << label << " frame " << t;
    }
    EXPECT_EQ(got.meanConfidence(), want.meanConfidence()) << label;
}

TEST_P(ChunkedScoringProperty, BuilderMatchesBatchScoringBitwise)
{
    const std::size_t chunk_param = GetParam();
    auto &ctx = faultContext(777);
    FaultInjector::global().disarm();
    const float scale = ctx.system.platform().acousticScale;

    for (PruneLevel level : {PruneLevel::None, PruneLevel::P90}) {
        const InferenceEngine &engine = ctx.system.engineFor(level);
        for (const auto &utt : ctx.testSet) {
            const auto inputs = ctx.corpus.spliceUtterance(utt);
            const AcousticScores want =
                AcousticScores::fromEngine(engine, inputs, scale);

            ScoreMatrixBuilder builder(engine, inputs, scale);
            const std::size_t frames = builder.frameCount();
            ASSERT_EQ(frames, want.frameCount());
            const std::size_t chunk = chunk_param
                ? chunk_param
                : std::max<std::size_t>(frames, 1);
            for (std::size_t begin = 0; begin < frames;
                 begin += chunk) {
                const std::size_t end = std::min(frames, begin + chunk);
                ASSERT_TRUE(builder.scoreTo(end));
                ASSERT_EQ(builder.scoredFrames(), end);
                // Rows are final the moment their window lands, not
                // only at take(): the pipelined decode loop reads them
                // while later windows are still being scored.
                for (std::size_t t = begin; t < end; ++t) {
                    ASSERT_EQ(std::memcmp(builder.matrix().row(t),
                                          want.row(t),
                                          want.classCount() *
                                              sizeof(float)),
                              0)
                        << "frame " << t;
                }
            }
            ASSERT_TRUE(builder.complete());
            expectSameScores(std::move(builder).take(), want,
                             pruneLevelName(level));
        }
    }
}

TEST_P(ChunkedScoringProperty, ScoreStreamCommitsTheScoresForMatrix)
{
    const std::size_t chunk_param = GetParam();
    auto &ctx = faultContext(777);
    FaultInjector::global().disarm();
    const PruneLevel level = PruneLevel::P90;
    ThreadPool helpers(2);

    for (const bool prefetch : {false, true}) {
        for (std::size_t i = 0; i < ctx.testSet.size(); ++i) {
            Utterance utt = ctx.testSet[i];
            // Fresh id per (chunking, arm, utterance): every stream
            // under test opens cold.
            utt.id = mix64(0x5c07e5u + chunk_param * 131 + i * 17 +
                           (prefetch ? 1 : 0)) |
                1;

            auto stream = ctx.system.openScoreStream(utt, level);
            ASSERT_FALSE(stream->fromCache());
            ASSERT_FALSE(stream->poisoned());
            const std::size_t frames = stream->frameCount();
            const std::size_t chunk = chunk_param
                ? chunk_param
                : std::max<std::size_t>(frames, 1);
            if (prefetch)
                stream->startPrefetch(chunk, &helpers);
            for (std::size_t begin = 0; begin < frames;
                 begin += chunk) {
                stream->ensureScored(std::min(frames, begin + chunk));
            }
            const auto committed = stream->finish();
            ASSERT_TRUE(stream->complete());

            // finish() committed the matrix to the LRU: scoresFor and
            // a warm stream now serve the very same object.
            const auto cached = ctx.system.scoresFor(utt, level);
            EXPECT_EQ(cached.get(), committed.get());
            auto warm = ctx.system.openScoreStream(utt, level);
            EXPECT_TRUE(warm->fromCache());
            EXPECT_TRUE(warm->complete());
            EXPECT_EQ(warm->finish().get(), committed.get());

            // Bit-identical to whole-utterance scoring.
            const AcousticScores want = AcousticScores::fromEngine(
                ctx.system.engineFor(level),
                ctx.corpus.spliceUtterance(utt),
                ctx.system.platform().acousticScale);
            expectSameScores(*committed, want,
                             prefetch ? "prefetch" : "on-demand");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedScoringProperty,
                         ::testing::Values(1, 7, 0));

} // namespace
} // namespace darkside
