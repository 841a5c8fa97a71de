/**
 * @file
 * Incremental acoustic scoring for one utterance, pipelined with the
 * decode that consumes it: the ScoreStream scores frame windows while
 * the caller decodes earlier frames, so the search starts after one
 * scored window rather than the whole utterance. Batch decodes
 * (AsrSystem::runUtterance) and serve sessions both consume scores
 * this way, and AsrSystem::scoresFor is a stream finished at once.
 *
 * A stream opens in one of two states:
 *
 *  - complete: the (level, id) key hit the sharded LRU or the
 *    persistent store; scores() is the full matrix immediately.
 *  - streaming: the stream owns the spliced inputs and a
 *    ScoreMatrixBuilder. ensureScored(f) makes rows [0, f) final.
 *    After startPrefetch(window, helpers) rows are scored in windows
 *    that end at fixed multiples of `window`, in frame order, one at a
 *    time: a task on the helper pool scores the next window ahead of
 *    the consumer, and ensureScored scores on the consumer any window
 *    it needs that no helper is scoring. The consumer therefore waits
 *    only for a window being scored at that moment, never for a queued
 *    task, and without helpers the same code scores every window on
 *    the consumer.
 *
 * Bit-identity: the completed matrix is bit-identical to
 * AcousticScores::fromEngine for any window size (ScoreMatrixBuilder's
 * contract), and the windows, and with them the dnn.infer.* counts, do
 * not depend on which thread scores them. finish() commits the matrix
 * to the LRU + store, so a later decode of the same utterance hits the
 * identical bytes.
 *
 * Faults: the inference.scores probe is consulted once at open (NaN
 * fault → poisoned() stream that is never cached; other kinds throw
 * FaultError from openScoreStream). A window with a non-finite cost is
 * never published: rows from it on surface as
 * FaultError(inference.scores, NanScores), and the matrix is never
 * committed.
 *
 * Threading: one consumer thread drives ensureScored/finish. Windows
 * are handed over under a mutex, so rows below an ensureScored()
 * boundary are safe to read without further locking. A helper task
 * holds only the stream's shared hand-off state: finish() and the
 * destructor close it and wait for a window being scored at that
 * moment, and a task still queued then finds the stream closed and
 * returns without touching it.
 */

#ifndef DARKSIDE_SYSTEM_SCORE_STREAM_HH
#define DARKSIDE_SYSTEM_SCORE_STREAM_HH

#include <memory>
#include <optional>
#include <vector>

#include "decoder/acoustic.hh"
#include "system/asr_system.hh"

namespace darkside {

class ScoreStream
{
  public:
    /** Closes the stream to helper tasks and waits for a window being
     *  scored at that moment, if any. */
    ~ScoreStream();

    ScoreStream(const ScoreStream &) = delete;
    ScoreStream &operator=(const ScoreStream &) = delete;

    std::size_t frameCount() const;

    /** True when the whole matrix is final (cache hit or finished). */
    bool complete() const;

    /** The stream opened on a resident LRU/store entry. */
    bool fromCache() const { return fromCache_; }

    /** An injected NaN fault poisoned this stream at open; the caller
     *  degrades the utterance (the matrix is all-NaN, never cached). */
    bool poisoned() const { return poisoned_; }

    /**
     * Make rows [0, frame) final: score the windows no helper is
     * scoring on this thread, and wait for one a helper is. Before
     * startPrefetch the window is [scored, frame). Throws
     * FaultError(inference.scores, NanScores) when a window up to
     * `frame` has a non-finite cost, and rethrows a helper's exception.
     */
    void ensureScored(std::size_t frame);

    /**
     * Score the rest of the utterance in windows ending at multiples of
     * `windowFrames` (0 = one window), and keep a task on `helpers`
     * scoring the next window ahead of the consumer; the pool must
     * outlive the stream. Null helpers, or a pool without workers,
     * leave every window to ensureScored. No-op when the stream is
     * complete or prefetch already started.
     */
    void startPrefetch(std::size_t windowFrames, ThreadPool *helpers);

    /**
     * The score matrix. Rows below the last ensureScored() boundary
     * are final; the reference and its row storage are stable until
     * finish() returns.
     */
    const AcousticScores &
    scores() const
    {
        return shared_ ? *shared_ : builder_->matrix();
    }

    /**
     * Score any remaining frames, commit the completed matrix to the
     * sharded LRU and the persistent store (cacheable, unpoisoned
     * streams only) and return shared ownership of it. After finish()
     * the stream stays readable through the returned pointer.
     */
    std::shared_ptr<const AcousticScores> finish();

  private:
    friend class AsrSystem;

    /** Window hand-off shared with the helper tasks (score_stream.cc). */
    struct Handoff;

    ScoreStream(AsrSystem &system, const Utterance &utt,
                PruneLevel level);

    AsrSystem &system_;
    ScoreKey key_;
    std::uint64_t uttId_;
    bool cacheable_;
    bool fromCache_ = false;
    bool poisoned_ = false;
    /** A corrupt LRU hit was discarded at open; finish() notes the
     *  recovery once the recompute lands. */
    bool recoveredPending_ = false;

    /** Set when complete (hit at open, or after finish()). */
    std::shared_ptr<const AcousticScores> shared_;

    /** Streaming state (unset when the stream opened complete). */
    std::vector<Vector> spliced_;
    std::optional<ScoreMatrixBuilder> builder_;
    std::shared_ptr<Handoff> handoff_;
};

} // namespace darkside

#endif // DARKSIDE_SYSTEM_SCORE_STREAM_HH
