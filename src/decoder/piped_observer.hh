/**
 * @file
 * A SearchObserver that moves another observer off the decode thread.
 * The decode thread only records the hooks it fires, in order, into
 * fixed batches of kBatchFrames frames; a ThreadPool worker replays
 * each published batch into the sink, so the sink runs beside the
 * search instead of inside it. AsrSystem::runUtterance puts the
 * Viterbi-accelerator simulator behind one of these.
 *
 * The sink sees exactly the call sequence it would have seen attached
 * directly: the same hooks with the same arguments in the same order,
 * from one thread at a time (a pipe never has two replay tasks live),
 * so a deterministic sink produces bit-identical results. Recording is
 * bounded: a pipe owns kBatches batches and recycles them, and the
 * decode thread waits for the sink when all of them are in flight.
 * Without a helper pool, publishing a batch replays it on the decode
 * thread through the same code.
 */

#ifndef DARKSIDE_DECODER_PIPED_OBSERVER_HH
#define DARKSIDE_DECODER_PIPED_OBSERVER_HH

#include <array>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <vector>

#include "decoder/viterbi_decoder.hh"
#include "util/thread_pool.hh"

namespace darkside {

class PipedSearchObserver final : public SearchObserver
{
  public:
    /** Frames per recorded batch. */
    static constexpr std::size_t kBatchFrames = 8;
    /** Batches a pipe owns: one recording, the others queued or being
     *  replayed. */
    static constexpr std::size_t kBatches = 3;

    /**
     * @param sink receives the replayed hooks; must outlive the pipe
     * @param helpers runs the replay tasks and must outlive the pipe;
     *        null (or a pool without workers) replays each batch on
     *        the decode thread when it is published
     */
    PipedSearchObserver(SearchObserver &sink, ThreadPool *helpers);

    PipedSearchObserver(const PipedSearchObserver &) = delete;
    PipedSearchObserver &operator=(const PipedSearchObserver &) = delete;

    /** Waits until no published batch is left to replay, so a decode
     *  that threw never leaves a task touching the sink; a batch still
     *  being recorded is dropped. */
    ~PipedSearchObserver() override;

    void onUtteranceStart(std::size_t frames) override;
    void onFrameStart(std::size_t t) override;
    void onStateExpand(StateId state) override;
    void onFrameEnd(const FrameActivity &activity) override;
    void onUtteranceEnd(const TraceStats &trace) override;

    /**
     * Publish what is recorded and wait until the sink has seen every
     * hook; the sink may then be read on this thread. Rethrows the
     * first exception the sink threw (the hooks after it are dropped).
     */
    void finish();

  private:
    struct Frame
    {
        std::size_t t = 0;
        /** End of this frame's expanded states in Batch::states. */
        std::size_t statesEnd = 0;
        FrameActivity activity;
    };

    struct Batch
    {
        std::optional<std::size_t> utteranceStart;
        std::vector<StateId> states;
        std::vector<Frame> frames;
        std::optional<TraceStats> utteranceEnd;
    };

    /** The batch being recorded, waiting for a free one if needed. */
    Batch &recording();
    /** Hand the recorded batch to the helpers. */
    void publish();
    /** Replay task body: every published batch, in order. */
    void replayPublished();

    SearchObserver &sink_;
    ThreadPool *helpers_;
    /** Batch n of the decode lives in ring_[n % kBatches]. */
    std::array<Batch, kBatches> ring_;

    // Decode thread only.
    Batch *recording_ = nullptr;
    std::size_t frameT_ = 0;

    std::mutex mutex_;
    std::condition_variable progress_;
    std::size_t published_ = 0;
    std::size_t replayed_ = 0;
    /** A replay task is queued or running. */
    bool replaying_ = false;
    std::exception_ptr error_;
};

} // namespace darkside

#endif // DARKSIDE_DECODER_PIPED_OBSERVER_HH
