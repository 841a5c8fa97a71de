#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace perfbench {

double
SpanBuffer::sinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

long
SpanBuffer::open(const char *name, std::uint64_t id, long parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.startUs = sinceOrigin(Clock::now());
    spans_.push_back(span);
    return static_cast<long>(spans_.size()) - 1;
}

double
SpanBuffer::close(long index)
{
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.endUs = sinceOrigin(Clock::now());
    return span.durationUs();
}

long
SpanBuffer::add(const char *name, Clock::time_point start,
                Clock::time_point end, std::uint64_t id, long parent)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.id = id;
    span.startUs = sinceOrigin(start);
    span.endUs = sinceOrigin(end);
    spans_.push_back(span);
    return static_cast<long>(spans_.size()) - 1;
}

std::map<std::string, double>
selfTimeUs(const std::vector<SpanBuffer> &buffers)
{
    std::map<std::string, double> self;
    for (const SpanBuffer &buffer : buffers) {
        const auto &spans = buffer.spans();
        std::vector<double> childUs(spans.size(), 0.0);
        for (const Span &span : spans) {
            if (span.parent >= 0)
                childUs[static_cast<std::size_t>(span.parent)] +=
                    span.durationUs();
        }
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[spans[i].name] += spans[i].durationUs() - childUs[i];
    }
    return self;
}

std::size_t
spanCount(const std::vector<SpanBuffer> &buffers)
{
    std::size_t n = 0;
    for (const SpanBuffer &buffer : buffers)
        n += buffer.spans().size();
    return n;
}

bool
writeSpans(const std::string &path, const std::string &stampJson,
           const std::vector<SpanBuffer> &buffers)
{
    std::ofstream os(path);
    os << "{\"stamp\": " << stampJson << ",\n\"spans\": [";
    char line[256];
    long offset = 0;
    bool first = true;
    for (const SpanBuffer &buffer : buffers) {
        for (const Span &span : buffer.spans()) {
            std::snprintf(line, sizeof(line),
                          "%s\n{\"name\": \"%s\", \"start_us\": %.3f, "
                          "\"end_us\": %.3f, \"parent\": %ld, "
                          "\"id\": %llu, \"thread\": %d}",
                          first ? "" : ",", span.name, span.startUs,
                          span.endUs,
                          span.parent < 0 ? -1L : span.parent + offset,
                          static_cast<unsigned long long>(span.id),
                          buffer.thread());
            os << line;
            first = false;
        }
        offset += static_cast<long>(buffer.spans().size());
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
