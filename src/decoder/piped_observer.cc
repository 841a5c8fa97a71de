#include "decoder/piped_observer.hh"

#include <utility>

namespace darkside {

PipedSearchObserver::PipedSearchObserver(SearchObserver &sink,
                                         ThreadPool *helpers)
    : sink_(sink), helpers_(helpers)
{}

PipedSearchObserver::~PipedSearchObserver()
{
    std::unique_lock<std::mutex> lock(mutex_);
    progress_.wait(lock, [this] { return !replaying_; });
}

void
PipedSearchObserver::onUtteranceStart(std::size_t frames)
{
    recording().utteranceStart = frames;
}

void
PipedSearchObserver::onFrameStart(std::size_t t)
{
    recording();
    frameT_ = t;
}

void
PipedSearchObserver::onStateExpand(StateId state)
{
    recording_->states.push_back(state);
}

void
PipedSearchObserver::onFrameEnd(const FrameActivity &activity)
{
    Batch &batch = *recording_;
    batch.frames.push_back({frameT_, batch.states.size(), activity});
    if (batch.frames.size() == kBatchFrames)
        publish();
}

void
PipedSearchObserver::onUtteranceEnd(const TraceStats &trace)
{
    recording().utteranceEnd = trace;
    publish();
}

void
PipedSearchObserver::finish()
{
    if (recording_)
        publish();
    std::unique_lock<std::mutex> lock(mutex_);
    progress_.wait(lock, [this] { return !replaying_; });
    if (error_)
        std::rethrow_exception(error_);
}

PipedSearchObserver::Batch &
PipedSearchObserver::recording()
{
    if (!recording_) {
        std::unique_lock<std::mutex> lock(mutex_);
        progress_.wait(lock, [this] {
            return published_ - replayed_ < kBatches;
        });
        recording_ = &ring_[published_ % kBatches];
    }
    return *recording_;
}

void
PipedSearchObserver::publish()
{
    recording_ = nullptr;
    bool start_task = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++published_;
        start_task = !std::exchange(replaying_, true);
    }
    // One task per pipe at a time keeps the sink's calls in order and
    // on one thread; it runs until it has caught up. Without workers
    // it runs right here.
    if (!start_task)
        return;
    if (helpers_)
        helpers_->submit([this] { replayPublished(); });
    else
        replayPublished();
}

void
PipedSearchObserver::replayPublished()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (replayed_ != published_) {
        Batch &batch = ring_[replayed_ % kBatches];
        const bool failed = error_ != nullptr;
        lock.unlock();
        std::exception_ptr error;
        if (!failed) {
            try {
                if (batch.utteranceStart)
                    sink_.onUtteranceStart(*batch.utteranceStart);
                std::size_t s = 0;
                for (const Frame &frame : batch.frames) {
                    sink_.onFrameStart(frame.t);
                    for (; s < frame.statesEnd; ++s)
                        sink_.onStateExpand(batch.states[s]);
                    sink_.onFrameEnd(frame.activity);
                }
                if (batch.utteranceEnd)
                    sink_.onUtteranceEnd(*batch.utteranceEnd);
            } catch (...) {
                error = std::current_exception();
            }
        }
        batch.utteranceStart.reset();
        batch.states.clear();
        batch.frames.clear();
        batch.utteranceEnd.reset();
        lock.lock();
        if (error)
            error_ = error;
        ++replayed_;
        progress_.notify_all();
    }
    // Cleared and notified under the lock: the owner may destroy the
    // pipe as soon as it sees replaying_ false.
    replaying_ = false;
    progress_.notify_all();
}

} // namespace darkside
