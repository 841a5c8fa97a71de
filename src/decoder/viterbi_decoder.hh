/**
 * @file
 * Reference software implementation of the Viterbi beam search
 * (Sec. II-C). The decoder is parameterised by a HypothesisSelector, so
 * the same search kernel reproduces the paper's four configurations:
 * baseline unbounded search, narrowed beams, accurate N-best, and the
 * proposed hash-based loose N-best. Per-frame activity counters feed the
 * workload figures (Fig. 4) and the accelerator cycle model.
 *
 * The decode loop itself is a devirtualized template (see DESIGN.md
 * "Decode hot path"): `decode()` dispatches once per utterance on
 * whether an observer is attached and on the selector's concrete type.
 * Each `final` selector (unbounded, Max-Heap hash, relative threshold,
 * adaptive beam) runs a statically bound kernel with zero virtual calls
 * per arc; any other selector runs the same kernel through the virtual
 * interface. Streaming decode dispatches the same way per chunk, from
 * the same list. Results stay bit-identical across all dispatch
 * variants. Observers are called per frame and per expanded state,
 * never per arc.
 */

#ifndef DARKSIDE_DECODER_VITERBI_DECODER_HH
#define DARKSIDE_DECODER_VITERBI_DECODER_HH

#include <limits>
#include <vector>

#include "corpus/lexicon.hh"
#include "decoder/acoustic.hh"
#include "decoder/trace_arena.hh"
#include "nbest/hypothesis.hh"
#include "util/edit_distance.hh"
#include "wfst/wfst.hh"

namespace darkside {

/** Beam-search parameters. */
struct DecoderConfig
{
    /** Beam width in log space (paper default: 15; narrowed to 10/9/8
     *  for the Beam-70/80/90 configurations). */
    float beam = 15.0f;

    /** Trace-arena pool size below which mark-compact collection is
     *  not attempted (see TraceArena; 1 forces a collection at every
     *  frame boundary — the sanitizer stress configuration). */
    std::size_t traceGcMinNodes = 16384;
};

/** Search activity for one frame of speech. */
struct FrameActivity
{
    /** Hypotheses generated (arcs relaxed) this frame — "M". */
    std::uint64_t generated = 0;
    /** Tokens expanded (sources within the beam). */
    std::uint64_t expanded = 0;
    /** Hypotheses alive after selection — "N" (Fig. 4's workload). */
    std::uint64_t survivors = 0;
    /** Selector-internal counters (collisions, evictions, ...). */
    SelectorFrameStats selector;
};

/** Outcome of decoding one utterance. */
struct DecodeResult
{
    /** Best-path word sequence (empty when the search died). */
    std::vector<WordId> words;
    /** Cost of the best complete path (including the final cost);
     *  +inf when the search died before the last frame. */
    double totalCost = std::numeric_limits<double>::infinity();
    /** False when no token reached a final state (backtrace is then from
     *  the best non-final token), and always false for a dead search. */
    bool reachedFinal = false;
    /** Per-frame activity. */
    std::vector<FrameActivity> frames;
    /** Backtrace arena (node 0 is the start sentinel; compacted, so
     *  only nodes live at the end of the search remain). */
    std::vector<TraceNode> trace;
    /** Survivors of the final frame (their .trace indexes `trace`). */
    std::vector<Hypothesis> finalTokens;
    /** Trace-arena lifetime accounting (decode.trace.* telemetry). */
    TraceStats traceStats;

    /** Frame-activity totals, accumulated once during the decode (they
     *  are re-read per utterance by telemetry and bench aggregation,
     *  which used to rescan `frames` on every call). */
    std::uint64_t totalGenerated() const { return generatedTotal; }
    std::uint64_t totalSurvivors() const { return survivorTotal; }
    std::uint64_t maxSurvivorsPerFrame() const { return survivorPeak; }
    double meanSurvivorsPerFrame() const;

    /** Word sequence of the path ending at `trace_index`. */
    std::vector<WordId> backtrace(std::uint32_t trace_index) const;

    /** Decoder-maintained running totals behind the accessors above. */
    std::uint64_t generatedTotal = 0;
    std::uint64_t survivorTotal = 0;
    std::uint64_t survivorPeak = 0;
};

/**
 * Observation hooks the decoder fires while searching. The Viterbi
 * accelerator simulator implements this interface to see the exact
 * state/arc access streams (for its cache models) without the decoder
 * knowing anything about hardware. There is no per-arc hook: the
 * decoder's per-arc loop never calls an observer, and an observer that
 * needs the arc stream derives it from onStateExpand.
 */
class SearchObserver
{
  public:
    virtual ~SearchObserver() = default;

    /** A new utterance of `frames` frames starts. */
    virtual void onUtteranceStart(std::size_t frames) {}

    /** Frame `t` starts. */
    virtual void onFrameStart(std::size_t t) {}

    /**
     * The State Issuer fetched `state` for expansion. Right after this
     * call the decoder relaxes the state's whole arc run
     * [fst.arcBegin(state), fst.arcEnd(state)), in order, and no other
     * arc, before the next onStateExpand or onFrameEnd: an observer
     * may replay that run as the frame's arc fetch stream.
     */
    virtual void onStateExpand(StateId state) {}

    /** Frame closed with the given activity counters. */
    virtual void onFrameEnd(const FrameActivity &activity) {}

    /** The utterance's search ended (normally or dead); `trace` is the
     *  backpointer arena's lifetime accounting. */
    virtual void onUtteranceEnd(const TraceStats &trace) {}
};

class ViterbiStream;

/**
 * Token-passing Viterbi beam search over an all-emitting WFST.
 */
class ViterbiDecoder
{
  public:
    ViterbiDecoder(const Wfst &fst, const DecoderConfig &config);

    /**
     * Decode one utterance.
     * @param scores per-frame acoustic costs
     * @param selector survival policy (reset internally per frame)
     * @param observer optional hardware-model hooks
     */
    DecodeResult decode(const AcousticScores &scores,
                        HypothesisSelector &selector,
                        SearchObserver *observer = nullptr) const;

    /**
     * Begin an incremental (streaming) decode of one utterance: feed
     * frames in chunks with ViterbiStream::advanceFrames and close with
     * ViterbiStream::finishUtterance. The final DecodeResult is
     * bit-identical (words, totalCost, per-frame counters, trace
     * accounting) to decode() over the same frames with the same
     * selector, for any chunking.
     *
     * The selector, observer, decoder and WFST must outlive the stream.
     * A streaming observer receives onUtteranceStart(0) — the frame
     * count is unknown up front.
     */
    ViterbiStream startUtterance(HypothesisSelector &selector,
                                 SearchObserver *observer = nullptr) const;

  private:
    friend class ViterbiStream;

    template <bool kObserved, typename Sel>
    DecodeResult decodeImpl(const AcousticScores &scores, Sel &selector,
                            SearchObserver *observer) const;

    const Wfst &fst_;
    DecoderConfig config_;
};

/** Best in-flight hypothesis of a streaming decode, emitted between
 *  chunks (the serving layer's partial transcript). */
struct PartialHypothesis
{
    /** Backtrace of the cheapest active token (empty while no words
     *  have been emitted, or once the search died). */
    std::vector<WordId> words;
    /** Cost of that token; +inf on a dead stream. */
    float cost = std::numeric_limits<float>::infinity();
    /** Frames consumed so far. */
    std::size_t frames = 0;
};

/**
 * Per-utterance incremental decode state (see
 * ViterbiDecoder::startUtterance). Runs the exact batch per-frame
 * kernel over whatever chunk boundaries the caller picks, so chunking
 * never changes the result; only the final best-token selection and
 * backtrace wait for finishUtterance().
 *
 * Movable, not copyable. One selector serves one stream at a time (its
 * per-frame state is reset at each frame boundary, exactly as in batch
 * decode). A throwing observer (e.g. DecodeWatchdog) aborts the stream:
 * the exception propagates out of advanceFrames and the stream is dead
 * afterwards — the serving layer's degradation path.
 */
class ViterbiStream
{
  public:
    ViterbiStream(ViterbiStream &&) = default;
    ViterbiStream &operator=(ViterbiStream &&) = default;
    ViterbiStream(const ViterbiStream &) = delete;
    ViterbiStream &operator=(const ViterbiStream &) = delete;

    /**
     * Feed rows [begin, end) of `scores` as the next frames of the
     * utterance. Chunks may slice one utterance-wide score matrix
     * (absolute row indices) or arrive as per-chunk matrices
     * (begin = 0). No-op once the search has died.
     */
    void advanceFrames(const AcousticScores &scores, std::size_t begin,
                       std::size_t end);

    /** Frames consumed so far. */
    std::size_t frames() const { return result_.frames.size(); }

    /** True when the beam/selector killed every token, or an observer
     *  aborted the stream (terminal: further frames are ignored). */
    bool dead() const { return dead_; }

    /** Best partial hypothesis after the frames consumed so far.
     *  Mid-utterance, final states are not preferred — this is the
     *  cheapest active token, which may differ from the eventual
     *  complete-path winner. */
    PartialHypothesis partial() const;

    /**
     * Close the utterance: runs the batch epilogue (best-final vs
     * best-any token, backtrace) and returns the DecodeResult. The
     * stream is spent afterwards. Zero frames fed returns the same
     * empty result batch decode gives an empty score matrix; a dead
     * stream returns the dead-search result (empty words, +inf cost).
     */
    DecodeResult finishUtterance();

  private:
    friend class ViterbiDecoder;

    ViterbiStream(const ViterbiDecoder &decoder,
                  HypothesisSelector &selector, SearchObserver *observer);

    /** The chunk loop, templated on the concrete selector type so
     *  advanceFrames' dispatch (the same list as decode()'s) reaches
     *  the statically bound stepFrame instantiations. */
    template <typename Sel>
    void advanceImpl(const AcousticScores &scores, std::size_t begin,
                     std::size_t end, Sel &selector);

    const Wfst *fst_;
    DecoderConfig config_;
    HypothesisSelector *selector_;
    SearchObserver *observer_;
    TraceArena arena_;
    std::vector<Hypothesis> active_;
    std::vector<Hypothesis> next_;
    float activeBest_ = 0.0f;
    DecodeResult result_;
    bool dead_ = false;
    bool finished_ = false;
};

/**
 * Decode a batch of references and accumulate WER.
 *
 * @param results decoded word sequences
 * @param references ground-truth word sequences
 */
EditStats scoreTranscripts(
    const std::vector<std::vector<WordId>> &results,
    const std::vector<std::vector<WordId>> &references);

} // namespace darkside

#endif // DARKSIDE_DECODER_VITERBI_DECODER_HH
