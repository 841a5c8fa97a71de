/**
 * @file
 * One streaming decode session: owns the per-utterance mutable state
 * (selector, incremental Viterbi stream, deadline watchdog) while the
 * WFST and acoustic models stay shared read-only across every session.
 * Faults never escape a session — an expired deadline or an injected
 * decoder fault degrades this session only, and the degradation path is
 * the same DecodeWatchdog / FaultError machinery the batch pipeline
 * uses (docs/FAULTS.md).
 */

#ifndef DARKSIDE_SERVE_SESSION_HH
#define DARKSIDE_SERVE_SESSION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "decoder/viterbi_decoder.hh"
#include "decoder/watchdog.hh"
#include "nbest/hypothesis.hh"
#include "wfst/wfst.hh"

namespace darkside {

/** Terminal outcome of one session. */
struct SessionResult
{
    /** Final decode, bit-identical to a batch decode of the same
     *  frames (empty default when the session degraded). */
    DecodeResult decode;
    /** True when a fault (deadline, injection) abandoned the session. */
    bool degraded = false;
    /** Fault cause when degraded. */
    std::string faultCause;
    /** Chunks fed through advanceChunk. */
    std::size_t chunks = 0;
};

/**
 * Incremental decode of one utterance, driven chunk by chunk.
 *
 * The session arms its DecodeWatchdog at construction, so the deadline
 * budget covers the whole session (every chunk), checked at each frame
 * boundary. It is armed by DecodeWatchdog::armed, as in
 * AsrSystem::runUtterance: an injected `decoder.decode` Timeout arms it
 * already expired; any other kind throws FaultError from the
 * constructor, which the server's per-session isolation boundary
 * converts into a degraded session.
 *
 * Not thread-safe; one session is driven by one worker at a time.
 */
class Session
{
  public:
    /**
     * @param fst shared read-only decoding graph
     * @param beam beam width of this session's configuration
     * @param selector survival policy (owned; one per session)
     * @param id utterance id (fault key and result correlation)
     * @param deadlineSeconds wall budget for the whole session;
     *        0 disables the watchdog
     */
    Session(const Wfst &fst, float beam,
            std::unique_ptr<HypothesisSelector> selector,
            std::uint64_t id, double deadlineSeconds);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Feed rows [begin, end) of `scores` and return the best partial
     * hypothesis. Faults degrade the session instead of propagating;
     * further chunks are ignored once degraded or dead.
     */
    PartialHypothesis advanceChunk(const AcousticScores &scores,
                                   std::size_t begin, std::size_t end);

    bool degraded() const { return degraded_; }
    bool dead() const { return degraded_ || stream_->dead(); }
    std::uint64_t id() const { return id_; }
    std::size_t frames() const { return stream_->frames(); }

    /** Close the session (terminal). */
    SessionResult finish();

  private:
    std::uint64_t id_;
    std::unique_ptr<HypothesisSelector> selector_;
    ViterbiDecoder decoder_;
    DecodeWatchdog watchdog_;
    /** optional<> only because ViterbiStream has no default ctor; set
     *  in every constructor path. */
    std::optional<ViterbiStream> stream_;
    bool degraded_ = false;
    std::string faultCause_;
    std::size_t chunks_ = 0;
};

} // namespace darkside

#endif // DARKSIDE_SERVE_SESSION_HH
