/**
 * @file
 * Concrete hypothesis selectors:
 *
 *  - UnboundedSelector: functional behaviour of the UNFOLD baseline —
 *    every hypothesis survives (subject only to the decoder's beam), but
 *    accesses are classified into direct-mapped region / backup buffer /
 *    DRAM overflow so the cycle model can charge them (Sec. III-A).
 *  - AccurateNBest: keeps exactly the N best hypotheses per frame using
 *    a partial sort (the expensive "N-Best Accurate" comparison point).
 *  - DirectMappedHash: one hypothesis per entry; a collision keeps the
 *    cheaper path (the paper's direct-mapped line in Fig. 7).
 *  - SetAssociativeHash: the paper's proposal — K-way sets with Max-Heap
 *    replacement, loosely tracking the N best (N = entries).
 */

#ifndef DARKSIDE_NBEST_SELECTORS_HH
#define DARKSIDE_NBEST_SELECTORS_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "nbest/flat_table.hh"
#include "nbest/hypothesis.hh"
#include "nbest/max_heap_set.hh"
#include "util/bits.hh"

namespace darkside {

/**
 * Baseline: keep everything, account hash-region traffic.
 *
 * The storage is a FlatHypothesisMap (same recombination semantics and
 * enumeration order as the seed's std::unordered_map, flat layout);
 * the UNFOLD region classification — which direct-mapped entry a state
 * would land in, and whether it spills to the backup buffer or DRAM —
 * is replayed over the nodes in insertion order when the frame closes,
 * instead of being interleaved with every insert. The replay visits
 * distinct states in first-insertion order with per-node touch counts,
 * which is exactly the information the online classification consumed,
 * so the stats are byte-identical to the seed's.
 *
 * `final` so the decoder's devirtualized fast path can bind these
 * methods statically.
 */
class UnboundedSelector final : public HypothesisSelector
{
  public:
    /**
     * @param direct_entries direct-mapped hash entries (UNFOLD: 32K)
     * @param backup_entries on-chip backup-buffer entries (UNFOLD: 16K)
     */
    explicit UnboundedSelector(std::size_t direct_entries = 32768,
                               std::size_t backup_entries = 16384);

    void beginFrame() override;

    void
    insert(const Hypothesis &hyp) override
    {
        map_.insert(hyp);
    }

    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "unbounded"; }

  private:
    void replayStats();

    std::size_t backupEntries_;
    unsigned indexBits_;
    /** Epoch-stamped direct-mapped occupancy: an entry is taken this
     *  frame iff its stamp equals epoch_. Replaces a per-frame memset
     *  of the whole (32K-entry) array with one counter bump. */
    std::vector<std::uint16_t> directEpoch_;
    std::uint16_t epoch_;
    FlatHypothesisMap map_;
    std::size_t backupUsed_;
    /** Guards the stats replay so repeated finishFrame() calls on the
     *  same frame don't reclassify (the seed's stats were insert-time
     *  and thus naturally idempotent at frame close). */
    bool replayed_;
};

/**
 * Exact N-best selection via partial sort.
 */
class AccurateNBest : public HypothesisSelector
{
  public:
    explicit AccurateNBest(std::size_t n);

    void beginFrame() override;
    void insert(const Hypothesis &hyp) override;
    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "n-best-accurate"; }

    std::size_t n() const { return n_; }

  private:
    std::size_t n_;
    std::unordered_map<StateId, Hypothesis> table_;
};

/**
 * Direct-mapped bounded hash (associativity 1).
 */
class DirectMappedHash : public HypothesisSelector
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit DirectMappedHash(std::size_t entries);

    void beginFrame() override;
    void insert(const Hypothesis &hyp) override;
    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return "direct-mapped-hash"; }

  private:
    unsigned indexBits_;
    std::vector<Hypothesis> slots_;
    std::vector<std::uint8_t> valid_;
};

/**
 * The proposed K-way set-associative hash with Max-Heap replacement.
 *
 * The sets are fixed-size MaxHeapSet blocks in one contiguous array.
 * `final` so the decoder's devirtualized fast path can bind these
 * methods statically.
 */
class SetAssociativeHash final : public HypothesisSelector
{
  public:
    /**
     * @param entries total capacity N (paper: 1024); entries / ways must
     *        be a power of two
     * @param ways set associativity K (paper: 8); must divide entries,
     *        at most MaxHeapSet::kMaxWays
     */
    SetAssociativeHash(std::size_t entries, std::size_t ways);

    void beginFrame() override;

    void
    insert(const Hypothesis &hyp) override
    {
        ++stats_.insertions;
        MaxHeapSet &set = sets_[xorFoldHash(hyp.state, indexBits_)];

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

    float finishFrame(std::vector<Hypothesis> &out) override;
    using HypothesisSelector::finishFrame;
    const char *name() const override { return name_.c_str(); }

    std::size_t entries() const { return sets_.size() * ways_; }
    std::size_t ways() const { return ways_; }

  private:
    std::size_t ways_;
    unsigned indexBits_;
    std::vector<MaxHeapSet> sets_;
    std::string name_;
};

/**
 * Fraction of `reference` hypotheses (by state id) also present in
 * `loose` — the similarity metric of Fig. 9.
 */
double selectionSimilarity(const std::vector<Hypothesis> &reference,
                           const std::vector<Hypothesis> &loose);

} // namespace darkside

#endif // DARKSIDE_NBEST_SELECTORS_HH
