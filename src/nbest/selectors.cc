#include "nbest/selectors.hh"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/bits.hh"

namespace darkside {

UnboundedSelector::UnboundedSelector(std::size_t direct_entries,
                                     std::size_t backup_entries)
    : backupEntries_(backup_entries),
      indexBits_(floorLog2(direct_entries)),
      directEpoch_(direct_entries, 0), epoch_(1), backupUsed_(0),
      replayed_(false)
{
    ds_assert(isPowerOfTwo(direct_entries));
}

void
UnboundedSelector::beginFrame()
{
    stats_ = SelectorFrameStats{};
    map_.clear();
    if (++epoch_ == 0) {
        // Stamp wrap-around: refill once every 65535 frames so a stale
        // stamp can never alias the new epoch.
        std::fill(directEpoch_.begin(), directEpoch_.end(), 0);
        epoch_ = 1;
    }
    backupUsed_ = 0;
    replayed_ = false;
}

/**
 * UNFOLD hardware-model accounting, deferred out of the insert path.
 * Nodes are visited in first-insertion order — the order the online
 * classification saw distinct states — and each node's recombination
 * count (touches) tells how often its region was re-accessed, so the
 * replay produces byte-identical stats to classifying at insert time:
 * a node placed in backup/overflow costs one placement access plus one
 * access per recombination; direct-region traffic is free on-chip.
 */
void
UnboundedSelector::replayStats()
{
    const std::size_t n = map_.size();
    std::uint64_t touch_sum = 0;
    std::uint64_t collisions = 0;
    std::uint64_t backup = 0;
    std::uint64_t overflow = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t idx = xorFoldHash(map_.stateAt(i),
                                              indexBits_);
        const std::uint64_t touches = map_.touchesAt(i);
        touch_sum += touches;
        if (directEpoch_[idx] != epoch_) {
            directEpoch_[idx] = epoch_;
        } else {
            ++collisions;
            if (backupUsed_ < backupEntries_) {
                ++backupUsed_;
                backup += touches + 1;
            } else {
                overflow += touches + 1;
            }
        }
    }
    stats_.insertions = touch_sum + n;
    stats_.recombinations = touch_sum;
    stats_.collisions = collisions;
    stats_.backupAccesses = backup;
    stats_.overflowAccesses = overflow;
}

float
UnboundedSelector::finishFrame(std::vector<Hypothesis> &out)
{
    if (!replayed_) {
        replayStats();
        replayed_ = true;
    }
    out.clear();
    out.reserve(map_.size());
    const float best = map_.collect(out);
    stats_.survivors = out.size();
    return best;
}

AccurateNBest::AccurateNBest(std::size_t n)
    : n_(n)
{
    ds_assert(n > 0);
}

void
AccurateNBest::beginFrame()
{
    stats_ = SelectorFrameStats{};
    table_.clear();
}

void
AccurateNBest::insert(const Hypothesis &hyp)
{
    ++stats_.insertions;
    auto [it, inserted] = table_.emplace(hyp.state, hyp);
    if (!inserted) {
        ++stats_.recombinations;
        if (hyp.cost < it->second.cost)
            it->second = hyp;
    }
}

float
AccurateNBest::finishFrame(std::vector<Hypothesis> &out)
{
    out.clear();
    out.reserve(table_.size());
    for (const auto &[state, hyp] : table_)
        out.push_back(hyp);

    if (out.size() > n_) {
        std::partial_sort(out.begin(),
                          out.begin() + static_cast<std::ptrdiff_t>(n_),
                          out.end(),
                          [](const Hypothesis &a, const Hypothesis &b) {
                              return a.cost < b.cost;
                          });
        stats_.evictions = out.size() - n_;
        out.resize(n_);
    }
    stats_.survivors = out.size();
    float best = std::numeric_limits<float>::infinity();
    for (const auto &h : out)
        best = std::min(best, h.cost);
    return best;
}

DirectMappedHash::DirectMappedHash(std::size_t entries)
    : indexBits_(floorLog2(entries)), slots_(entries),
      valid_(entries, 0)
{
    ds_assert(isPowerOfTwo(entries));
}

void
DirectMappedHash::beginFrame()
{
    stats_ = SelectorFrameStats{};
    std::fill(valid_.begin(), valid_.end(), 0);
}

void
DirectMappedHash::insert(const Hypothesis &hyp)
{
    ++stats_.insertions;
    const std::uint32_t idx = xorFoldHash(hyp.state, indexBits_);
    if (!valid_[idx]) {
        valid_[idx] = 1;
        slots_[idx] = hyp;
        return;
    }
    Hypothesis &cur = slots_[idx];
    if (cur.state == hyp.state) {
        ++stats_.recombinations;
        if (hyp.cost < cur.cost)
            cur = hyp;
        return;
    }
    ++stats_.collisions;
    if (hyp.cost < cur.cost) {
        ++stats_.evictions;
        cur = hyp;
    } else {
        ++stats_.rejections;
    }
}

float
DirectMappedHash::finishFrame(std::vector<Hypothesis> &out)
{
    out.clear();
    float best = std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (valid_[i]) {
            best = std::min(best, slots_[i].cost);
            out.push_back(slots_[i]);
        }
    }
    stats_.survivors = out.size();
    return best;
}

SetAssociativeHash::SetAssociativeHash(std::size_t entries,
                                       std::size_t ways)
    : ways_(ways)
{
    ds_assert(ways >= 1);
    ds_assert(entries % ways == 0);
    const std::size_t set_count = entries / ways;
    ds_assert(isPowerOfTwo(set_count));
    indexBits_ = floorLog2(set_count);
    sets_.assign(set_count, MaxHeapSet(ways));
    name_ = std::to_string(ways) + "-way-hash-" +
        std::to_string(entries);
}

void
SetAssociativeHash::beginFrame()
{
    stats_ = SelectorFrameStats{};
    for (auto &set : sets_)
        set.clear();
}

float
SetAssociativeHash::finishFrame(std::vector<Hypothesis> &out)
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

double
selectionSimilarity(const std::vector<Hypothesis> &reference,
                    const std::vector<Hypothesis> &loose)
{
    if (reference.empty())
        return 1.0;
    std::unordered_set<StateId> loose_states;
    loose_states.reserve(loose.size());
    for (const auto &h : loose)
        loose_states.insert(h.state);
    std::size_t overlap = 0;
    for (const auto &h : reference)
        overlap += loose_states.count(h.state);
    return static_cast<double>(overlap) /
        static_cast<double>(reference.size());
}

} // namespace darkside
