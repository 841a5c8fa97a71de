#include "decoder/viterbi_decoder.hh"

#include <algorithm>
#include <limits>

#include "nbest/adaptive_selectors.hh"
#include "nbest/selectors.hh"

namespace darkside {

double
DecodeResult::meanSurvivorsPerFrame() const
{
    if (frames.empty())
        return 0.0;
    return static_cast<double>(survivorTotal) /
        static_cast<double>(frames.size());
}

ViterbiDecoder::ViterbiDecoder(const Wfst &fst,
                               const DecoderConfig &config)
    : fst_(fst), config_(config)
{
    ds_assert(config.beam > 0.0f);
}

std::vector<WordId>
DecodeResult::backtrace(std::uint32_t trace_index) const
{
    std::vector<WordId> result;
    std::uint32_t node = trace_index;
    while (node != 0) {
        ds_assert(node < trace.size());
        result.push_back(trace[node].word - 1);
        node = trace[node].prev;
    }
    std::reverse(result.begin(), result.end());
    return result;
}

namespace {

/**
 * One frame of the search. Shared verbatim by the batch kernel
 * (decodeImpl) and the streaming seam (ViterbiStream), so both paths
 * perform identical arithmetic in identical order — the chunked result
 * is bit-identical to the batch result by construction. Templated on
 * observer presence (kObserved) and the concrete selector type: with
 * Sel a final class the inner per-arc loop compiles with no virtual
 * calls, and no instantiation calls an observer per arc (observers see
 * each expanded state and replay its arc run themselves).
 *
 * @return false when the search died (no survivors this frame).
 */
template <bool kObserved, typename Sel>
bool
stepFrame(const Wfst &fst, const DecoderConfig &config, TraceArena &arena,
          std::vector<Hypothesis> &active, std::vector<Hypothesis> &next,
          float &active_best, const float *row, std::size_t t,
          FrameActivity &activity, DecodeResult &result, Sel &selector,
          SearchObserver *observer)
{
    if constexpr (kObserved)
        observer->onFrameStart(t);

    // Beam pruning: expand only tokens within `beam` of the best.
    const float lattice_beam = active_best + config.beam;

    selector.beginFrame();
    for (const auto &token : active) {
        if (token.cost > lattice_beam)
            continue;
        ++activity.expanded;
        if constexpr (kObserved)
            observer->onStateExpand(token.state);
        const std::size_t begin = fst.arcBegin(token.state);
        const std::size_t end = fst.arcEnd(token.state);
        const Arc *arc = fst.arcData(begin);
        for (std::size_t a = begin; a < end; ++a, ++arc) {
            Hypothesis hyp;
            hyp.state = arc->dest;
            hyp.cost = token.cost + arc->weight + row[arc->ilabel];
            hyp.trace = arc->olabel != kEpsilon
                ? arena.append(arc->olabel, token.trace)
                : token.trace;
            selector.insert(hyp);
        }
        activity.generated += end - begin;
    }

    active_best = selector.finishFrame(next);
    activity.selector = selector.frameStats();
    activity.survivors = next.size();
    result.generatedTotal += activity.generated;
    result.survivorTotal += activity.survivors;
    result.survivorPeak =
        std::max(result.survivorPeak, activity.survivors);
    if constexpr (kObserved)
        observer->onFrameEnd(activity);

    active.swap(next);
    if (active.empty())
        return false;
    // Frame boundary: the survivors are the only live trace roots,
    // so dead backpointer chains are collectable. Remaps the
    // survivors' trace handles in place.
    arena.maybeCollect(active);
    return true;
}

/**
 * The one list of selectors the decode kernel binds statically: calls
 * `fn` with `selector` as its concrete type when that is one of these
 * `final` classes, and as the interface otherwise (the kernel then runs
 * through virtual calls). Both decode arms dispatch through here — the
 * batch arm once per utterance, the streaming arm once per chunk.
 */
template <typename Fn>
decltype(auto)
withConcreteSelector(HypothesisSelector &selector, Fn &&fn)
{
    if (auto *s = dynamic_cast<UnboundedSelector *>(&selector))
        return fn(*s);
    if (auto *s = dynamic_cast<SetAssociativeHash *>(&selector))
        return fn(*s);
    if (auto *s = dynamic_cast<RelativeThresholdSelector *>(&selector))
        return fn(*s);
    if (auto *s = dynamic_cast<AdaptiveBeamSelector *>(&selector))
        return fn(*s);
    return fn(selector);
}

/** Hand the spent arena's pool and accounting to the result. */
void
sealTrace(TraceArena &arena, DecodeResult &result)
{
    arena.finish();
    result.trace = arena.release();
    result.traceStats = arena.stats();
}

/** Batch epilogue: pick the best token, preferring complete
 *  (final-state) paths, and backtrace it. */
void
finalizeBest(const Wfst &fst, DecodeResult &result,
             const std::vector<Hypothesis> &active)
{
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
}

} // namespace

/**
 * The batch search kernel: stepFrame over every row of `scores`, then
 * the best-token epilogue. Every (kObserved x selector) instantiation
 * produces bit-identical results.
 */
template <bool kObserved, typename Sel>
DecodeResult
ViterbiDecoder::decodeImpl(const AcousticScores &scores, Sel &selector,
                           SearchObserver *observer) const
{
    DecodeResult result;
    const std::size_t frames = scores.frameCount();
    if (frames == 0)
        return result;
    if constexpr (kObserved)
        observer->onUtteranceStart(frames);

    TraceArena arena(config_.traceGcMinNodes);
    selector.startUtterance();

    // Double-buffered token storage: `active` is read, the selector
    // writes survivors into `next`, and the buffers swap — no per-frame
    // vector allocation.
    std::vector<Hypothesis> active;
    std::vector<Hypothesis> next;
    active.push_back({fst_.start(), 0.0f, 0});

    result.frames.resize(frames);

    // Minimum cost among `active`, maintained across frames: the lone
    // start token costs 0, afterwards finishFrame reports the survivor
    // minimum — the same min the seed recomputed by scanning.
    float active_best = 0.0f;

    for (std::size_t t = 0; t < frames; ++t) {
        // Hoisted acoustic row: scores.cost(t, ilabel) per arc becomes
        // one indexed load.
        if (!stepFrame<kObserved>(fst_, config_, arena, active, next,
                                  active_best, scores.row(t), t,
                                  result.frames[t], result, selector,
                                  observer)) {
            // Search died (beam too small / selector too aggressive):
            // report an empty transcript with an explicit dead-search
            // outcome (+inf cost, no final state reached).
            sealTrace(arena, result);
            if constexpr (kObserved)
                observer->onUtteranceEnd(result.traceStats);
            return result;
        }
    }

    sealTrace(arena, result);
    finalizeBest(fst_, result, active);
    if constexpr (kObserved)
        observer->onUtteranceEnd(result.traceStats);
    return result;
}

DecodeResult
ViterbiDecoder::decode(const AcousticScores &scores,
                       HypothesisSelector &selector,
                       SearchObserver *observer) const
{
    return withConcreteSelector(selector, [&](auto &sel) {
        return observer ? decodeImpl<true>(scores, sel, observer)
                        : decodeImpl<false>(scores, sel, nullptr);
    });
}

ViterbiStream
ViterbiDecoder::startUtterance(HypothesisSelector &selector,
                               SearchObserver *observer) const
{
    return ViterbiStream(*this, selector, observer);
}

ViterbiStream::ViterbiStream(const ViterbiDecoder &decoder,
                             HypothesisSelector &selector,
                             SearchObserver *observer)
    : fst_(&decoder.fst_), config_(decoder.config_),
      selector_(&selector), observer_(observer),
      arena_(decoder.config_.traceGcMinNodes)
{
    active_.push_back({fst_->start(), 0.0f, 0});
    selector_->startUtterance();
    if (observer_)
        observer_->onUtteranceStart(0);
}

void
ViterbiStream::advanceFrames(const AcousticScores &scores,
                             std::size_t begin, std::size_t end)
{
    ds_assert(!finished_);
    ds_assert(begin <= end && end <= scores.frameCount());
    if (dead_)
        return;

    withConcreteSelector(*selector_, [&](auto &sel) {
        advanceImpl(scores, begin, end, sel);
    });
}

template <typename Sel>
void
ViterbiStream::advanceImpl(const AcousticScores &scores,
                           std::size_t begin, std::size_t end,
                           Sel &selector)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::size_t t = result_.frames.size();
        FrameActivity &activity = result_.frames.emplace_back();
        bool alive;
        try {
            alive = observer_
                ? stepFrame<true>(*fst_, config_, arena_, active_, next_,
                                  activeBest_, scores.row(i), t, activity,
                                  result_, selector, observer_)
                : stepFrame<false>(*fst_, config_, arena_, active_, next_,
                                   activeBest_, scores.row(i), t, activity,
                                   result_, selector, observer_);
        } catch (...) {
            // A throwing observer (DecodeWatchdog past its deadline)
            // aborts the stream mid-frame; the partial frame's arena
            // state is unusable, so the stream turns terminal and
            // finishUtterance reports the dead-search outcome.
            dead_ = true;
            sealTrace(arena_, result_);
            throw;
        }
        if (!alive) {
            // Search died: same terminal outcome as the batch kernel
            // (empty transcript, +inf cost, no final state).
            dead_ = true;
            sealTrace(arena_, result_);
            if (observer_)
                observer_->onUtteranceEnd(result_.traceStats);
            return;
        }
    }
}

PartialHypothesis
ViterbiStream::partial() const
{
    PartialHypothesis p;
    p.frames = result_.frames.size();
    if (dead_ || finished_ || active_.empty())
        return p;

    const Hypothesis *best = &active_.front();
    for (const auto &h : active_) {
        if (h.cost < best->cost)
            best = &h;
    }
    p.cost = best->cost;

    const auto &nodes = arena_.nodes();
    for (std::uint32_t n = best->trace; n != 0; n = nodes[n].prev)
        p.words.push_back(nodes[n].word - 1);
    std::reverse(p.words.begin(), p.words.end());
    return p;
}

DecodeResult
ViterbiStream::finishUtterance()
{
    ds_assert(!finished_);
    finished_ = true;
    if (dead_)
        return std::move(result_);
    if (result_.frames.empty()) {
        // Batch decode of an empty score matrix returns the default
        // result without touching the arena or the observer.
        return DecodeResult{};
    }
    sealTrace(arena_, result_);
    finalizeBest(*fst_, result_, active_);
    if (observer_)
        observer_->onUtteranceEnd(result_.traceStats);
    return std::move(result_);
}

EditStats
scoreTranscripts(const std::vector<std::vector<WordId>> &results,
                 const std::vector<std::vector<WordId>> &references)
{
    ds_assert(results.size() == references.size());
    EditStats total;
    for (std::size_t i = 0; i < results.size(); ++i)
        total.merge(alignSequences(references[i], results[i]));
    return total;
}

} // namespace darkside
