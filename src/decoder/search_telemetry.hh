/**
 * @file
 * SearchObserver implementations that publish decoder activity to the
 * telemetry registry (docs/METRICS.md "search.*" / "selector.*"), plus
 * a tee that lets the telemetry observer ride alongside the hardware
 * simulator on the same decode.
 *
 * Every metric recorded here is deterministic: a decode is serial
 * within one utterance, and all values are integer event counts, so
 * aggregates are invariant under how utterances are spread across
 * worker threads.
 */

#ifndef DARKSIDE_DECODER_SEARCH_TELEMETRY_HH
#define DARKSIDE_DECODER_SEARCH_TELEMETRY_HH

#include "decoder/viterbi_decoder.hh"
#include "telemetry/metrics.hh"

namespace darkside {

/**
 * Publishes per-frame search activity and selector counters to a
 * MetricRegistry. Stateless between utterances; one instance can be
 * reused (or shared across threads — the registry shards writes).
 */
class SearchTelemetry : public SearchObserver
{
  public:
    /** Registers (or re-binds to) the search.* and selector.* metrics
     *  in `registry`. */
    explicit SearchTelemetry(
        telemetry::MetricRegistry &registry =
            telemetry::MetricRegistry::global());

    void onUtteranceStart(std::size_t frames) override;
    void onFrameEnd(const FrameActivity &activity) override;
    void onUtteranceEnd(const TraceStats &trace) override;

  private:
    telemetry::Counter utterances_;
    telemetry::Counter frames_;
    telemetry::Counter generated_;
    telemetry::Counter expanded_;
    telemetry::Counter survivors_;
    telemetry::Counter insertions_;
    telemetry::Counter recombinations_;
    telemetry::Counter collisions_;
    telemetry::Counter backupAccesses_;
    telemetry::Counter overflowAccesses_;
    telemetry::Counter evictions_;
    telemetry::Counter rejections_;
    telemetry::Counter traceAllocated_;
    telemetry::Counter traceCollected_;
    telemetry::Counter traceGcRuns_;
    telemetry::Histogram hypsPerFrame_;
    telemetry::Histogram generatedPerFrame_;
    telemetry::Histogram tracePeakLive_;
};

/**
 * Fans decoder hooks out to two observers (either may be null). Lets a
 * decode feed the accelerator simulator and SearchTelemetry at once
 * without the decoder growing an observer list.
 */
class TeeSearchObserver : public SearchObserver
{
  public:
    TeeSearchObserver(SearchObserver *a, SearchObserver *b)
        : a_(a), b_(b)
    {}

    void
    onUtteranceStart(std::size_t frames) override
    {
        if (a_)
            a_->onUtteranceStart(frames);
        if (b_)
            b_->onUtteranceStart(frames);
    }

    void
    onFrameStart(std::size_t t) override
    {
        if (a_)
            a_->onFrameStart(t);
        if (b_)
            b_->onFrameStart(t);
    }

    void
    onStateExpand(StateId state) override
    {
        if (a_)
            a_->onStateExpand(state);
        if (b_)
            b_->onStateExpand(state);
    }

    void
    onFrameEnd(const FrameActivity &activity) override
    {
        if (a_)
            a_->onFrameEnd(activity);
        if (b_)
            b_->onFrameEnd(activity);
    }

    void
    onUtteranceEnd(const TraceStats &trace) override
    {
        if (a_)
            a_->onUtteranceEnd(trace);
        if (b_)
            b_->onUtteranceEnd(trace);
    }

  private:
    SearchObserver *a_;
    SearchObserver *b_;
};

} // namespace darkside

#endif // DARKSIDE_DECODER_SEARCH_TELEMETRY_HH
