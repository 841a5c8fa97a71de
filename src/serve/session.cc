#include "serve/session.hh"

#include <utility>

#include "fault/fault.hh"

namespace darkside {

Session::Session(const Wfst &fst, float beam,
                 std::unique_ptr<HypothesisSelector> selector,
                 std::uint64_t id, double deadlineSeconds)
    : id_(id), selector_(std::move(selector)),
      decoder_(fst, DecoderConfig{beam}),
      watchdog_(DecodeWatchdog::armed(deadlineSeconds, id))
{
    stream_.emplace(decoder_.startUtterance(
        *selector_, watchdog_.enabled() ? &watchdog_ : nullptr));
}

PartialHypothesis
Session::advanceChunk(const AcousticScores &scores, std::size_t begin,
                      std::size_t end)
{
    ++chunks_;
    if (!degraded_ && !stream_->dead()) {
        // An injected chunk stall degrades the session exactly at this
        // chunk boundary — the worker never blocks, so a stalled
        // session cannot hold up its pool neighbours.
        if (auto kind = FaultInjector::global().trigger(
                "serve.chunk_stall", id_)) {
            degraded_ = true;
            faultCause_ =
                FaultError("serve.chunk_stall", *kind, id_).what();
        } else {
            try {
                stream_->advanceFrames(scores, begin, end);
            } catch (const FaultError &e) {
                degraded_ = true;
                faultCause_ = e.what();
            }
        }
    }
    if (degraded_)
        return PartialHypothesis{};
    return stream_->partial();
}

SessionResult
Session::finish()
{
    SessionResult result;
    result.degraded = degraded_;
    result.faultCause = faultCause_;
    result.chunks = chunks_;
    if (!degraded_)
        result.decode = stream_->finishUtterance();
    return result;
}

} // namespace darkside
