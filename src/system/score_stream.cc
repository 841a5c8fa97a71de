#include "system/score_stream.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "fault/fault.hh"

namespace darkside {

/**
 * What the consumer and the helper tasks share; every field is guarded
 * by `mutex`. One window is scored at a time (`scoring`), so the
 * builder is never entered by two threads at once, and nothing claims
 * a window once the stream is `closed`, so the builder is not touched
 * after finish() or the destructor returns. A helper task owns a
 * reference to this state, never to the stream.
 */
struct ScoreStream::Handoff : std::enable_shared_from_this<Handoff>
{
    explicit Handoff(ScoreMatrixBuilder &b)
        : builder(b), total(b.frameCount())
    {}

    /**
     * Score the next window on this thread and publish it. Called with
     * `lock` held and no window in flight; the lock is released while
     * scoring. Without a window size the window ends at `target`.
     */
    void
    scoreNext(std::unique_lock<std::mutex> &lock, std::size_t target)
    {
        const std::size_t end = window
            ? std::min(total, (published / window + 1) * window)
            : target;
        scoring = true;
        lock.unlock();
        bool finite = false;
        std::exception_ptr thrown;
        try {
            finite = builder.scoreTo(end);
        } catch (...) {
            thrown = std::current_exception();
        }
        lock.lock();
        scoring = false;
        if (thrown)
            error = thrown;
        else if (!finite)
            nan = true; // publish the fault, not the window
        else
            published = end;
        cv.notify_all();
    }

    /** No window is left for a helper to score. */
    bool
    idle() const
    {
        return closed || nan || error || published == total;
    }

    /**
     * Queue a helper task for the next window, unless one is queued or
     * none is left. Called with `mutex` held, and submits under it: by
     * the time the consumer sees the window a task published, that
     * task's successor is queued, so once the stream is finished or
     * destroyed no task is left about to submit, and the pool may
     * stop. The pool has workers, so submit never runs the task here.
     */
    void
    arm()
    {
        if (!helpers || queued || idle())
            return;
        queued = true;
        helpers->submit([self = shared_from_this()] { self->prefetch(); });
    }

    /** Helper task body: one window ahead of the consumer, then queue
     *  the next. Stands down while the consumer scores a window (it
     *  re-arms the helper afterwards) and once the stream closed. */
    void
    prefetch()
    {
        std::unique_lock<std::mutex> lock(mutex);
        queued = false;
        if (scoring || idle())
            return;
        scoreNext(lock, total);
        arm();
    }

    std::mutex mutex;
    std::condition_variable cv;
    ScoreMatrixBuilder &builder;
    const std::size_t total;
    /** Window size; 0 until startPrefetch. */
    std::size_t window = 0;
    /** Pool scoring ahead of the consumer; null without helpers. */
    ThreadPool *helpers = nullptr;
    /** Rows [0, published) are final. */
    std::size_t published = 0;
    /** A window is being scored at this moment. */
    bool scoring = false;
    /** A helper task is queued or running. */
    bool queued = false;
    bool closed = false;
    /** A window had a non-finite cost (it stays unpublished). */
    bool nan = false;
    std::exception_ptr error;
};

std::unique_ptr<ScoreStream>
AsrSystem::openScoreStream(const Utterance &utt, PruneLevel level)
{
    return std::unique_ptr<ScoreStream>(
        new ScoreStream(*this, utt, level));
}

ScoreStream::ScoreStream(AsrSystem &system, const Utterance &utt,
                         PruneLevel level)
    : system_(system), key_(static_cast<int>(level), utt.id),
      uttId_(utt.id), cacheable_(utt.id != 0)
{
    if (cacheable_) {
        auto found = system_.scoreCache_.lookup(key_);
        if (found.scores) {
            shared_ = std::move(found.scores);
            fromCache_ = true;
            return;
        }
        recoveredPending_ = found.corruptDiscarded;
        if (auto restored = system_.readPersistedScores(key_)) {
            shared_ = system_.scoreCache_.insert(key_,
                                                 std::move(restored));
            fromCache_ = true;
            return;
        }
    }

    spliced_ = system_.corpus().spliceUtterance(utt);
    if (auto kind = FaultInjector::global().trigger("inference.scores",
                                                    utt.id)) {
        if (*kind != FaultKind::NanScores)
            throw FaultError("inference.scores", *kind, utt.id);
        // Poisoned at open: the whole matrix is NaN, the caller
        // degrades the utterance, and nothing is ever cached from
        // this stream.
        shared_ = std::make_shared<const AcousticScores>(
            AcousticScores::poisoned(spliced_.size(),
                                     system_.corpus().classCount()));
        poisoned_ = true;
        cacheable_ = false;
        return;
    }
    builder_.emplace(system_.engineFor(level), spliced_,
                     system_.platform().acousticScale);
    handoff_ = std::make_shared<Handoff>(*builder_);
}

ScoreStream::~ScoreStream()
{
    if (!handoff_)
        return;
    std::unique_lock<std::mutex> lock(handoff_->mutex);
    handoff_->closed = true;
    handoff_->cv.wait(lock, [this] { return !handoff_->scoring; });
}

std::size_t
ScoreStream::frameCount() const
{
    return shared_ ? shared_->frameCount() : builder_->frameCount();
}

bool
ScoreStream::complete() const
{
    return shared_ != nullptr;
}

void
ScoreStream::ensureScored(std::size_t frame)
{
    if (shared_)
        return;
    Handoff &h = *handoff_;
    std::unique_lock<std::mutex> lock(h.mutex);
    const std::size_t target = std::min(frame, h.total);
    while (h.published < target) {
        if (h.error)
            std::rethrow_exception(h.error);
        if (h.nan) {
            // Same degradation the batch path's finite() check raises.
            throw FaultError("inference.scores", FaultKind::NanScores,
                             uttId_);
        }
        if (h.scoring) {
            h.cv.wait(lock, [&h] { return !h.scoring; });
        } else {
            h.scoreNext(lock, target);
            h.arm();
        }
    }
}

void
ScoreStream::startPrefetch(std::size_t windowFrames, ThreadPool *helpers)
{
    if (shared_)
        return;
    Handoff &h = *handoff_;
    std::lock_guard<std::mutex> lock(h.mutex);
    if (h.window)
        return;
    h.window = windowFrames ? windowFrames : h.total;
    if (helpers && helpers->threadCount() > 0)
        h.helpers = helpers;
    h.arm();
}

std::shared_ptr<const AcousticScores>
ScoreStream::finish()
{
    if (shared_)
        return shared_;
    ensureScored(frameCount());
    {
        // Every row is published, so no window is in flight; a helper
        // task still queued finds the stream closed.
        std::lock_guard<std::mutex> lock(handoff_->mutex);
        handoff_->closed = true;
    }
    handoff_.reset();
    shared_ = std::make_shared<const AcousticScores>(
        std::move(*builder_).take());
    builder_.reset();
    if (recoveredPending_) {
        FaultInjector::global().noteRecovered();
        recoveredPending_ = false;
    }
    if (cacheable_) {
        system_.persistScores(key_, *shared_);
        shared_ = system_.scoreCache_.insert(key_, shared_);
    }
    return shared_;
}

} // namespace darkside
