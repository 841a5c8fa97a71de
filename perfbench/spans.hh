/**
 * @file
 * In-memory span log of the traced benchmark run. Spans are recorded by
 * the benchmark's own code around its calls into each layer's public
 * functions (name, start, end, parent span, utterance or session id),
 * kept in one buffer per recording thread so the hot path never locks,
 * and written out as one JSON file when the run ends.
 */

#ifndef DARKSIDE_PERFBENCH_SPANS_HH
#define DARKSIDE_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One timed interval. Times are microseconds since the log origin. */
struct Span
{
    /** Static string naming the layer call ("dnn.forward", ...). */
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span in the same buffer; -1 for a root. */
    long parent = -1;
    /** Utterance id (batch) or session's utterance id (serve). */
    std::uint64_t id = 0;

    double durationUs() const { return endUs - startUs; }
};

/**
 * Spans of one recording thread. Not thread-safe: each thread owns one
 * buffer, and buffers are only merged after the threads joined.
 */
class SpanBuffer
{
  public:
    SpanBuffer(Clock::time_point origin, int thread)
        : origin_(origin), thread_(thread)
    {}

    /** Open a span starting now; @return its index for close(). */
    long open(const char *name, std::uint64_t id, long parent = -1);

    /** Close a span opened here; @return its duration in us. */
    double close(long index);

    /** Record an interval whose end points were taken elsewhere. */
    long add(const char *name, Clock::time_point start,
             Clock::time_point end, std::uint64_t id, long parent = -1);

    /** Time `fn()` as a span; @return its duration in us. */
    template <typename Fn>
    double
    timed(const char *name, std::uint64_t id, long parent, Fn &&fn)
    {
        const long span = open(name, id, parent);
        fn();
        return close(span);
    }

    int thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    double sinceOrigin(Clock::time_point t) const;

    Clock::time_point origin_;
    int thread_;
    std::vector<Span> spans_;
};

/**
 * Self time per span name over every buffer: each span's duration minus
 * the part of it its child spans cover (children of one span never
 * overlap, since one thread records them in sequence).
 */
std::map<std::string, double> selfTimeUs(
    const std::vector<SpanBuffer> &buffers);

/** Total span count over every buffer. */
std::size_t spanCount(const std::vector<SpanBuffer> &buffers);

/**
 * Write every span as JSON: {"stamp": <stampJson>, "spans": [...]},
 * one object per span with name, start_us, end_us, parent (global
 * index or -1), id and thread. @return false when the file cannot be
 * written.
 */
bool writeSpans(const std::string &path, const std::string &stampJson,
                const std::vector<SpanBuffer> &buffers);

} // namespace perfbench

#endif // DARKSIDE_PERFBENCH_SPANS_HH
