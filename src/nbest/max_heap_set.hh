/**
 * @file
 * The Max-Heap replacement structure of one hash set (Fig. 8 of the
 * paper). A set holds up to K hypotheses. The heap is maintained through
 * an *index vector* (3-bit indices in hardware): entries never move, only
 * the indices are reordered. A replacement removes the root (the worst
 * hypothesis) and inserts the new one along the *maximum path* — the
 * root-to-leaf path of maximum-cost successors — so that in hardware all
 * comparisons happen in parallel and the whole operation completes in a
 * single cycle.
 *
 * Hardware keeps the maximum path precomputed and updates it with every
 * change to the heap. The software model walks it from the root when a
 * replacement needs it: the path is a function of the heap alone, so the
 * walk yields the path the hardware holds at that moment.
 *
 * Entries and index vector are stored inline for up to kMaxWays = 16
 * ways (the paper's design point is 8), so a set is one fixed-size block
 * and a hash's sets form one contiguous array.
 */

#ifndef DARKSIDE_NBEST_MAX_HEAP_SET_HH
#define DARKSIDE_NBEST_MAX_HEAP_SET_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "nbest/hypothesis.hh"
#include "util/logging.hh"

namespace darkside {

/**
 * One K-entry set with Max-Heap eviction metadata.
 */
class MaxHeapSet
{
  public:
    /** Largest supported associativity (the inline storage's size). */
    static constexpr std::size_t kMaxWays = 16;

    /** @param ways set capacity K (the hash associativity), 1..16. */
    explicit MaxHeapSet(std::size_t ways);

    std::size_t capacity() const { return ways_; }
    std::size_t size() const { return size_; }
    bool full() const { return size_ == ways_; }

    /** Clear the set (new frame). */
    void clear() { size_ = 0; }

    /**
     * Entry slot holding `state`, or -1 (the lowest such slot). Hardware
     * compares all K tags in parallel; the software scan reads every
     * live tag without branching. This is the recombination lookup.
     */
    int
    find(StateId state) const
    {
        int slot = -1;
        for (int i = static_cast<int>(size_) - 1; i >= 0; --i)
            slot = entries_[i].state == state ? i : slot;
        return slot;
    }

    /** Entry at physical slot i (valid for i < size()). */
    const Hypothesis &
    entry(std::size_t i) const
    {
        ds_assert(i < size_);
        return entries_[i];
    }

    /** Cost of the worst (root) hypothesis; requires a non-empty set. */
    float
    worstCost() const
    {
        ds_assert(size_ > 0);
        return entries_[heap_[0]].cost;
    }

    /** Append into a non-full set, restoring the heap. */
    void
    insert(const Hypothesis &hyp)
    {
        ds_assert(!full());
        entries_[size_] = hyp;
        heap_[size_] = size_;
        siftUp(size_++);
    }

    /**
     * Lower the cost of slot `slot` to `hyp.cost` (recombination with a
     * better path). Requires hyp.cost <= current cost.
     */
    void
    recombine(int slot, const Hypothesis &hyp)
    {
        ds_assert(slot >= 0 && static_cast<std::size_t>(slot) < size_);
        ds_assert(entries_[slot].state == hyp.state);
        ds_assert(hyp.cost <= entries_[slot].cost);
        entries_[slot] = hyp;
        // The cost decreased: the node may now violate the max-heap
        // property towards its children; sift its heap position down.
        for (std::size_t pos = 0; pos < size_; ++pos) {
            if (heap_[pos] == slot) {
                siftDown(pos);
                break;
            }
        }
    }

    /**
     * Replace the root (worst) hypothesis with `hyp`, which must be
     * better than worstCost(). Implements the maximum-path insertion of
     * Fig. 8.
     */
    void
    replaceWorst(const Hypothesis &hyp)
    {
        ds_assert(full());
        ds_assert(hyp.cost < worstCost());

        // Hardware (Fig. 8): compare the new cost against every node of
        // the maximum path in parallel. Nodes worse than the new
        // hypothesis shift one level up (the root is discarded); the new
        // hypothesis is placed at the deepest vacated position. Only the
        // index vector moves; entry payloads stay in their slots.
        // Software walks the path from the root — at each node the
        // costlier child, the left one on a tie — and shifts while the
        // child is worse.
        const std::uint8_t freed_slot = heap_[0];
        std::size_t pos = 0;
        while (true) {
            const std::size_t left = 2 * pos + 1;
            const std::size_t right = left + 1;
            if (left >= size_)
                break;
            std::size_t next = left;
            if (right < size_ && costAtHeap(right) > costAtHeap(left))
                next = right;
            if (!(costAtHeap(next) > hyp.cost))
                break;
            heap_[pos] = heap_[next];
            pos = next;
        }
        heap_[pos] = freed_slot;
        entries_[freed_slot] = hyp;
    }

    /** Append the live hypotheses to `out`, in slot order. */
    void
    collect(std::vector<Hypothesis> &out) const
    {
        out.insert(out.end(), entries_, entries_ + size_);
    }

    /** Verify the heap invariant (test hook). @return true when valid. */
    bool heapValid() const;

    /** Heap-order slot index at heap position i (test hook). */
    std::uint8_t
    heapIndex(std::size_t i) const
    {
        ds_assert(i < size_);
        return heap_[i];
    }

  private:
    /** Sift the heap node at heap position `pos` down. */
    void
    siftDown(std::size_t pos)
    {
        while (true) {
            const std::size_t left = 2 * pos + 1;
            const std::size_t right = 2 * pos + 2;
            std::size_t largest = pos;
            if (left < size_ && costAtHeap(left) > costAtHeap(largest))
                largest = left;
            if (right < size_ && costAtHeap(right) > costAtHeap(largest))
                largest = right;
            if (largest == pos)
                return;
            std::swap(heap_[pos], heap_[largest]);
            pos = largest;
        }
    }

    /** Sift the heap node at heap position `pos` up. */
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

    Hypothesis entries_[kMaxWays];
    /** Heap position -> entry slot ("Max-Heap Index-Vector"). */
    std::uint8_t heap_[kMaxWays] = {};
    std::uint8_t ways_;
    std::uint8_t size_ = 0;
};

} // namespace darkside

#endif // DARKSIDE_NBEST_MAX_HEAP_SET_HH
