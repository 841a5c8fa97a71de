/**
 * @file
 * Cooperative per-decode watchdog. The Viterbi decoder has no
 * preemption, but it reports every frame boundary to its observer;
 * the watchdog checks the deadline there and aborts an overrunning
 * decode by throwing FaultError(decoder.decode, timeout), which the
 * per-utterance isolation boundary converts into a degraded
 * utterance. An injected timeout fault reuses the same machinery by
 * arming the watchdog already expired, so the injection exercises the
 * real abort path instead of a shortcut.
 */

#ifndef DARKSIDE_DECODER_WATCHDOG_HH
#define DARKSIDE_DECODER_WATCHDOG_HH

#include <chrono>
#include <cstdint>

#include "decoder/viterbi_decoder.hh"
#include "fault/fault.hh"

namespace darkside {

class DecodeWatchdog : public SearchObserver
{
  public:
    /**
     * @param seconds deadline budget; 0 disables the watchdog,
     *        negative arms it already expired (timeout injection)
     * @param key the utterance id reported in the FaultError
     */
    DecodeWatchdog(double seconds, std::uint64_t key)
        : enabled_(seconds != 0.0), expired_(seconds < 0.0), key_(key)
    {
        if (seconds > 0.0) {
            deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
        }
    }

    /**
     * The watchdog of a decode of utterance `key`, armed from the
     * decoder.decode fault probe: an injected Timeout arms it already
     * expired, so the fault takes the real frame-boundary abort path;
     * any other injected kind throws FaultError. Without a fault it
     * gets the `seconds` budget.
     */
    static DecodeWatchdog
    armed(double seconds, std::uint64_t key)
    {
        if (auto kind = FaultInjector::global().trigger("decoder.decode",
                                                        key)) {
            if (*kind != FaultKind::Timeout)
                throw FaultError("decoder.decode", *kind, key);
            return DecodeWatchdog(-1.0, key);
        }
        return DecodeWatchdog(seconds, key);
    }

    /** False when the budget is 0; skip attaching the observer. */
    bool enabled() const { return enabled_; }

    void
    onFrameStart(std::size_t) override
    {
        if (expired_ ||
            std::chrono::steady_clock::now() >= deadline_)
            throw FaultError("decoder.decode", FaultKind::Timeout, key_);
    }

  private:
    bool enabled_;
    bool expired_;
    std::uint64_t key_;
    std::chrono::steady_clock::time_point deadline_{
        std::chrono::steady_clock::time_point::max()};
};

} // namespace darkside

#endif // DARKSIDE_DECODER_WATCHDOG_HH
