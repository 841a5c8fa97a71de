/**
 * @file
 * The repository benchmark: three workloads that split the layers so
 * that each layer does most of the work in one workload and little in
 * another (see README.md in this directory for the workloads, the
 * metrics and the prediction each per-layer metric carries).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * The untraced run (--trace 0) measures the end-to-end metrics; the
 * traced run (--trace 1) times the calls into each layer's public
 * functions from this file and reports the per-layer metrics. Both check
 * outputs for correctness and end with one JSON line:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * A correctness mismatch prints correct=false and exits 3. Timing
 * metrics are in reference-host time: each measured interval is divided
 * by the host's slowdown over it, from a fixed probe kernel timed
 * alongside the workload (SpeedProbe, SpeedTrace).
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/viterbi/viterbi_accel.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "spans.hh"
#include "system/defaults.hh"
#include "telemetry/metrics.hh"
#include "telemetry/snapshot.hh"
#include "tensor/kernels.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace perfbench {
namespace {

using namespace darkside;

struct Workload
{
    const char *name;
    bool serve;
    SearchMode mode;
    PruneLevel level;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"batch-p90-baseline", false, SearchMode::Baseline, PruneLevel::P90},
    {"batch-np-nbest", false, SearchMode::NBestHash, PruneLevel::None},
    {"serve-p90-nbest", true, SearchMode::NBestHash, PruneLevel::P90},
};

/** Closed-loop clients of the batch workloads. */
constexpr std::size_t kClients = 2;
/** Utterances in one batch request (one runTestSet). A request's
 *  latency sums several evaluation utterances, so the latency
 *  distribution is smooth and its median does not jump between the
 *  latencies of single utterances from run to run. */
constexpr std::size_t kRequestUtterances = 4;
/** Seed of the split of each pass over the evaluation set into
 *  requests, fixed so that every run seed sends the same requests. */
constexpr std::uint64_t kRequestSeed = 20261016;
/** Session workers of the serve workload. Each session also runs a
 *  scoring prefetch thread, so two workers keep the server's threads
 *  within the host's four cores. */
constexpr std::size_t kServeWorkers = 2;
/** Threads of the post-run correctness checks (not timed). */
constexpr std::size_t kCheckThreads = 4;
/** Open-loop arrival rate: low enough that few sessions wait for a
 *  worker, so the median latencies are service times. */
constexpr double kServeRate = 20.0;
constexpr std::size_t kServeChunkFrames = 16;
constexpr double kServeTailShape = 1.2;
constexpr std::size_t kServeMaxLengthMultiple = 4;
/** Seed of the serve session population (lengths and content), fixed
 *  so that every run seed measures the same work. */
constexpr std::uint64_t kServeTrafficSeed = 20260808;
/** Admission budget (sessions and queued tasks): large enough that a
 *  healthy run at kServeRate sheds nothing. */
constexpr std::size_t kServeBudget = 64;
/** The evaluation set: a fixed corpus sample that every workload draws
 *  its content from, so runs on different seeds measure the same work
 *  (the seed draws the ids, the request order and the arrival
 *  schedule). Batch requests cycle over it in groups of
 *  kRequestUtterances; serve sessions splice it. */
constexpr std::size_t kEvalUtterances = 96;
static_assert(kEvalUtterances % kRequestUtterances == 0);
/** Size of the runTestSet whose WER and simulated seconds are pinned. */
constexpr std::size_t kPinnedUtterances = 48;
/** Batch requests whose runUtterance transcripts are compared word for
 *  word (every request is compared through its edit statistics). */
constexpr std::size_t kTranscriptChecks = 4;
constexpr int kSetupRepeats = 7;
/** Untimed warm-up before the measured phase, as a share of --seconds
 *  (at most kWarmupMaxSeconds). */
constexpr double kWarmupShare = 0.1;
constexpr double kWarmupMaxSeconds = 2.0;
/** Allowed gap between the traced per-layer sum and the untraced wall
 *  time per frame on the batch workloads. */
constexpr double kReconcileSlack = 0.10;
/** Steps of one host-speed probe (about 0.25 ms). */
constexpr std::size_t kProbeSteps = 20000;
/** Probe time of the reference host, the 4-core Xeon VM this benchmark
 *  was tuned on, in a quiet period (ns per step). Timing metrics are
 *  scaled to it. */
constexpr double kProbeRefNs = 12.0;
/** Probe samples this close to a timed interval describe its host
 *  speed. */
constexpr auto kProbeWindow = std::chrono::milliseconds(50);
/** The serve generator probes only in gaps between arrivals longer
 *  than this. */
constexpr auto kProbeGap = std::chrono::milliseconds(2);

/** Id spaces: every phase of a run draws fresh utterance ids. */
enum Phase : std::uint64_t {
    kPhaseMeasure = 1,
    kPhaseTrace = 2,
    kPhasePinned = 3,
    kPhaseReconcile = 4,
    kPhaseWarmup = 5,
    kPhaseCheck = 6,
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cacheDir = "perfbench/.cache/models";
    std::string pinsPath = "perfbench/pins.txt";
    std::string outDir = "perfbench/.out";
    /** Self-test hook: corrupt the first checked transcript. */
    bool corrupt = false;
    /** Print the pinned values instead of running a workload. */
    bool writePins = false;
};

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::duration
secondsToDuration(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/** Nearest-rank percentile of a sample (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    PercentileTracker t;
    for (const double x : v)
        t.add(x);
    return t.percentile(p);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

std::uint64_t
requestId(std::uint64_t seed, std::uint64_t phase, std::uint64_t index)
{
    return mix64(mix64(seed) ^ (phase << 40) ^ index) | 1;
}

/** A permutation of 0..n-1 drawn from `seed`. */
std::vector<std::size_t>
shuffled(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k)
        order[k] = k;
    Rng rng(seed);
    for (std::size_t k = n - 1; k > 0; --k)
        std::swap(order[k], order[rng.below(k + 1)]);
    return order;
}

/**
 * Host-speed probe: a fixed kernel owned by the benchmark, so it never
 * changes with the code under test. It does what the decoder's token
 * passing does most, insert-or-min of float costs into an open-
 * addressing table (2^14 slots, cleared every 2^12 steps), and reports
 * nanoseconds per step. On a shared host the other tenants slow the
 * probe and the workload together, so dividing a measured time by the
 * probe's slowdown at that moment (see SpeedTrace) removes most of the
 * host's drift from run to run.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : keys_(kSlots, 0), costs_(kSlots, 0.0f) {}

    double
    measure()
    {
        // Bring the table into cache first, so the probe times the
        // host's speed, not how much of the table the workload evicted.
        std::fill(keys_.begin(), keys_.end(), 0);
        std::fill(costs_.begin(), costs_.end(), 0.0f);
        std::uint64_t x = state_;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kProbeSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const auto key = static_cast<std::uint32_t>(x % 6007) + 1;
            const float cost = static_cast<float>(x >> 40) * 1e-6f;
            std::uint32_t slot = (key * 0x9E3779B1u) >> 18;
            while (keys_[slot] != 0 && keys_[slot] != key)
                slot = (slot + 1) & (kSlots - 1);
            if (keys_[slot] == 0) {
                keys_[slot] = key;
                costs_[slot] = cost;
            } else if (cost < costs_[slot]) {
                costs_[slot] = cost;
            }
            if ((i & 4095) == 4095)
                std::fill(keys_.begin(), keys_.end(), 0);
        }
        const double ns = usBetween(t0, Clock::now()) * 1e3;
        state_ = x;
        return ns / static_cast<double>(kProbeSteps);
    }

  private:
    static constexpr std::uint32_t kSlots = 1u << 14;
    std::vector<std::uint32_t> keys_;
    std::vector<float> costs_;
    std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

/**
 * Time-stamped probe samples of one phase (one trace per probing
 * thread, merged after the phase). factor(a, b) is the host's slowdown
 * over [a, b]: the mean probe time of the samples within kProbeWindow of
 * the interval (the nearest sample when none is) over kProbeRefNs.
 * Timing metrics divide each measured time by the factor of its own
 * interval, so they read in reference-host time.
 */
class SpeedTrace
{
  public:
    void
    probe(SpeedProbe &p)
    {
        const auto at = Clock::now();
        samples_.emplace_back(at, p.measure());
        sorted_ = false;
    }

    void
    merge(const SpeedTrace &o)
    {
        samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
        sorted_ = false;
    }

    double
    factor(Clock::time_point a, Clock::time_point b) const
    {
        sort();
        if (samples_.empty())
            return 1.0;
        const auto lo = std::lower_bound(
            samples_.begin(), samples_.end(),
            std::make_pair(a - kProbeWindow, 0.0));
        double sum = 0.0;
        std::size_t n = 0;
        for (auto it = lo; it != samples_.end() && it->first <= b + kProbeWindow;
             ++it, ++n)
            sum += it->second;
        if (n > 0)
            return sum / static_cast<double>(n) / kProbeRefNs;
        // No sample near the interval: the nearest one on either side.
        auto nearest = lo;
        if (lo == samples_.end() ||
            (lo != samples_.begin() &&
             a - std::prev(lo)->first < lo->first - b))
            nearest = std::prev(lo);
        return nearest->second / kProbeRefNs;
    }

    double
    medianNs() const
    {
        std::vector<double> ns;
        for (const auto &s : samples_)
            ns.push_back(s.second);
        return median(ns);
    }

    std::size_t size() const { return samples_.size(); }

  private:
    void
    sort() const
    {
        if (!sorted_)
            std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }

    mutable std::vector<std::pair<Clock::time_point, double>> samples_;
    mutable bool sorted_ = true;
};

/** Time from `a` to `b` (us): wall time, or reference-host time when
 *  `speed` is given. */
double
timedUs(const SpeedTrace *speed, Clock::time_point a, Clock::time_point b)
{
    return usBetween(a, b) / (speed ? speed->factor(a, b) : 1.0);
}

/** Everything one run shares: the built context and its inputs. */
struct Bench
{
    Options opt;
    const Workload *wl = nullptr;
    std::unique_ptr<ExperimentContext> ctx;
    SystemConfig config;
    /** The evaluation set (kEvalUtterances). */
    std::vector<Utterance> evalSet;
    /** Setup time in reference-host and in wall seconds. */
    double setupS = 0.0;
    double setupWallS = 0.0;

    AsrSystem &sys() { return ctx->system; }

    /** Evaluation-set index of the `index`-th utterance the batch
     *  loop sends. Each pass over the evaluation set splits it into
     *  requests of kRequestUtterances by a shuffle fixed per pass, so
     *  every seed sends the same requests; the seed draws their order
     *  within the pass. The order depends on the index only, so the
     *  traced phase replays the untraced phase's inputs. */
    std::size_t
    content(std::size_t index) const
    {
        const std::size_t n = evalSet.size();
        const std::size_t pass = index / n;
        const std::size_t k = index % n;
        const auto split = shuffled(n, mix64(kRequestSeed) ^ pass);
        const auto order =
            shuffled(n / kRequestUtterances, mix64(opt.seed) ^ pass);
        return split[order[k / kRequestUtterances] * kRequestUtterances +
                     k % kRequestUtterances];
    }

    /** The `index`-th utterance of a phase, under an id fresh to the
     *  phase, so the score cache never short-circuits scoring. */
    Utterance
    utterance(std::uint64_t phase, std::size_t index) const
    {
        Utterance u = evalSet[content(index)];
        u.id = requestId(opt.seed, phase, index);
        return u;
    }

    /** Batch request `index` of a phase: the next kRequestUtterances
     *  utterances. */
    std::vector<Utterance>
    request(std::uint64_t phase, std::size_t index) const
    {
        std::vector<Utterance> set;
        for (std::size_t m = 0; m < kRequestUtterances; ++m)
            set.push_back(utterance(phase, index * kRequestUtterances + m));
        return set;
    }
};

ExperimentSetup
benchSetup(const Options &opt)
{
    ExperimentSetup s = scaledSetup();
    s.testUtterances = 0;
    s.zoo.cacheDir = opt.cacheDir;
    return s;
}

/**
 * Build the context. The first build trains the models into the cache
 * when it is cold and is not timed; setup_s is the median of the timed
 * rebuilds that follow (context from the warm cache plus engine and
 * DNN-simulator warm-up), each in reference-host time from a probe
 * before and after it.
 */
void
setUp(Bench &b)
{
    const ExperimentSetup s = benchSetup(b.opt);
    b.ctx = std::make_unique<ExperimentContext>(s);
    SpeedProbe probe;
    SpeedTrace speed;
    std::vector<double> times;
    std::vector<double> wallTimes;
    for (int k = 0; k < kSetupRepeats; ++k) {
        b.ctx.reset();
        speed.probe(probe);
        const auto t0 = Clock::now();
        b.ctx = std::make_unique<ExperimentContext>(s);
        b.ctx->system.engineFor(b.wl->level);
        b.ctx->system.dnnSim(b.wl->level);
        const auto t1 = Clock::now();
        speed.probe(probe);
        times.push_back(timedUs(&speed, t0, t1) * 1e-6);
        wallTimes.push_back(usBetween(t0, t1) * 1e-6);
    }
    b.setupS = median(times);
    b.setupWallS = median(wallTimes);
    b.config = b.ctx->setup.configFor(b.wl->mode, b.wl->level);
    b.evalSet = b.ctx->corpus.sampleUtterances(kEvalUtterances,
                                               b.ctx->setup.testSeed);
}

// --- failure ledger ---------------------------------------------------

struct Ledger
{
    std::string phase;
    std::uint64_t offered = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
};

void
printLedger(const Ledger &l)
{
    std::printf("ledger %-10s offered %llu succeeded %llu failed %llu\n",
                l.phase.c_str(),
                static_cast<unsigned long long>(l.offered),
                static_cast<unsigned long long>(l.succeeded),
                static_cast<unsigned long long>(l.failed));
}

// --- batch workloads ----------------------------------------------------

/** One closed-loop request: a runTestSet over kRequestUtterances
 *  utterances. */
struct Request
{
    std::size_t index = 0;
    std::size_t client = 0;
    Clock::time_point sent;
    Clock::time_point done;
    std::uint64_t frames = 0;
    EditStats wer;
    std::uint64_t survivors = 0;
    std::uint64_t generated = 0;
    double dnnS = 0.0;
    double viterbiS = 0.0;
    bool degraded = false;
};

struct BatchPhase
{
    std::vector<Request> requests;
    /** Host-speed probes taken before every request. */
    SpeedTrace speed;
    Clock::time_point start;
    Clock::time_point end;

    std::uint64_t
    frames() const
    {
        std::uint64_t n = 0;
        for (const Request &r : requests)
            n += r.frames;
        return n;
    }

    double
    busyUs() const
    {
        double us = 0.0;
        for (const Request &r : requests)
            us += usBetween(r.sent, r.done);
        return us;
    }

    /** busyUs() in reference-host time. */
    double
    refBusyUs() const
    {
        double us = 0.0;
        for (const Request &r : requests)
            us += usBetween(r.sent, r.done) / speed.factor(r.sent, r.done);
        return us;
    }
};

/**
 * Run `body(client, index)` on kClients closed-loop clients (workers of
 * a util ThreadPool) until `seconds` elapsed: each client takes the next
 * request index only after its previous request returned.
 */
template <typename Body>
void
closedLoop(double seconds, Body &&body)
{
    std::atomic<std::size_t> next{0};
    const auto deadline = Clock::now() + secondsToDuration(seconds);
    ThreadPool clients(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.submit([&, c] {
            while (Clock::now() < deadline)
                body(c, next.fetch_add(1));
        });
    }
}

BatchPhase
runBatch(Bench &b, std::uint64_t phase, double seconds)
{
    std::vector<std::vector<Request>> perClient(kClients);
    std::vector<SpeedProbe> probes(kClients);
    std::vector<SpeedTrace> speed(kClients);
    BatchPhase out;
    out.start = Clock::now();
    closedLoop(seconds, [&](std::size_t c, std::size_t i) {
        speed[c].probe(probes[c]);
        const std::vector<Utterance> set = b.request(phase, i);
        Request r;
        r.index = i;
        r.client = c;
        r.sent = Clock::now();
        const TestSetResult res = b.sys().runTestSet(set, b.config, 1);
        r.done = Clock::now();
        r.frames = res.frames;
        r.wer = res.wer;
        r.survivors = res.survivors;
        r.generated = res.generated;
        r.dnnS = res.dnn.seconds;
        r.viterbiS = res.viterbi.seconds;
        r.degraded = res.degraded != 0;
        if (r.degraded)
            r.frames = 0;
        perClient[c].push_back(r);
    });
    out.end = Clock::now();
    for (auto &v : perClient)
        out.requests.insert(out.requests.end(), v.begin(), v.end());
    for (const SpeedTrace &t : speed)
        out.speed.merge(t);
    std::sort(out.requests.begin(), out.requests.end(),
              [](const Request &x, const Request &y) {
                  return x.index < y.index;
              });
    return out;
}

/** A batch request's first and only result is its transcript, so its
 *  first-result and request latencies coincide; the gap is the time
 *  between consecutive transcripts one client receives. */
struct LatencyStats
{
    std::vector<double> firstMs;
    std::vector<double> gapUs;
    std::vector<double> requestMs;
};

/** Latencies in reference-host time, or wall time when `wall`. */
LatencyStats
batchLatencies(const BatchPhase &ph, bool wall = false)
{
    const SpeedTrace *speed = wall ? nullptr : &ph.speed;
    LatencyStats s;
    std::vector<Clock::time_point> lastDone(kClients);
    std::vector<bool> seen(kClients, false);
    std::vector<const Request *> byDone;
    for (const Request &r : ph.requests)
        byDone.push_back(&r);
    std::sort(byDone.begin(), byDone.end(),
              [](const Request *x, const Request *y) {
                  return x->done < y->done;
              });
    for (const Request *r : byDone) {
        if (r->degraded)
            continue;
        const double ms = timedUs(speed, r->sent, r->done) * 1e-3;
        s.firstMs.push_back(ms);
        s.requestMs.push_back(ms);
        if (seen[r->client])
            s.gapUs.push_back(timedUs(speed, lastDone[r->client], r->done));
        seen[r->client] = true;
        lastDone[r->client] = r->done;
    }
    return s;
}

DecodeResult
bareDecode(Bench &b, const AcousticScores &scores)
{
    const ViterbiDecoder decoder(b.sys().fst(), DecoderConfig{b.config.beam});
    auto selector = b.sys().makeSelector(b.config);
    return decoder.decode(scores, *selector);
}

void
corruptWords(std::vector<WordId> &words)
{
    if (words.empty())
        words.push_back(1);
    else
        words[0] ^= 1;
}

/**
 * Every runTestSet request must equal bare ViterbiDecoder::decode calls
 * on the same scores: edit statistics, survivors and generated counts.
 * Scores depend on an utterance's content only, so each evaluation
 * utterance is scored under a fresh id and decoded once, and every
 * request is compared with the sum of its utterances' decodes. The
 * utterances of the first kTranscriptChecks requests are also run
 * through runUtterance and compared word for word, with the same cost
 * and, summed in request order, the same simulated stage seconds.
 * @return mismatches.
 */
std::size_t
checkBatch(Bench &b, std::uint64_t phase, const BatchPhase &ph)
{
    struct Reference
    {
        bool used = false;
        DecodeResult decode;
        EditStats wer;
        std::uint64_t frames = 0;
    };
    std::vector<Reference> refs(b.evalSet.size());
    for (const Request &r : ph.requests) {
        for (std::size_t m = 0; m < kRequestUtterances; ++m)
            refs[b.content(r.index * kRequestUtterances + m)].used = true;
    }
    ThreadPool pool(kCheckThreads);
    parallelFor(&pool, refs.size(), [&](std::size_t j) {
        Reference &ref = refs[j];
        if (!ref.used)
            return;
        Utterance u = b.evalSet[j];
        u.id = requestId(b.opt.seed, kPhaseCheck, j);
        const auto scores = b.sys().scoresFor(u, b.config.prune);
        ref.decode = bareDecode(b, *scores);
        ref.wer = scoreTranscripts({ref.decode.words}, {u.words});
        ref.frames = scores->frameCount();
    });

    std::atomic<std::size_t> bad{0};
    parallelFor(&pool, ph.requests.size(), [&](std::size_t k) {
        const Request &r = ph.requests[k];
        if (r.degraded)
            return;
        const std::vector<Utterance> set = b.request(phase, r.index);
        EditStats wer;
        std::uint64_t survivors = 0;
        std::uint64_t generated = 0;
        std::uint64_t frames = 0;
        StageCost dnn;
        StageCost viterbi;
        bool ok = true;
        for (std::size_t m = 0; m < set.size(); ++m) {
            const Reference &ref =
                refs[b.content(r.index * kRequestUtterances + m)];
            wer.merge(ref.wer);
            survivors += ref.decode.totalSurvivors();
            generated += ref.decode.totalGenerated();
            frames += ref.frames;
            if (r.index >= kTranscriptChecks)
                continue;
            UtteranceRun run = b.sys().runUtterance(set[m], b.config);
            if (b.opt.corrupt && r.index == 0 && m == 0)
                corruptWords(run.decode.words);
            ok = ok && run.decode.words == ref.decode.words &&
                run.decode.totalCost == ref.decode.totalCost;
            dnn.add(run.dnn);
            viterbi.add(run.viterbi);
        }
        ok = ok && wer.substitutions == r.wer.substitutions &&
            wer.insertions == r.wer.insertions &&
            wer.deletions == r.wer.deletions &&
            wer.referenceLength == r.wer.referenceLength &&
            survivors == r.survivors && generated == r.generated &&
            frames == r.frames;
        if (r.index < kTranscriptChecks)
            ok = ok && dnn.seconds == r.dnnS && viterbi.seconds == r.viterbiS;
        if (!ok) {
            std::fprintf(stderr,
                         "perfbench: request %zu (first utterance %llu) "
                         "differs from bare decodes\n",
                         r.index,
                         static_cast<unsigned long long>(set[0].id));
            bad.fetch_add(1);
        }
    });
    return bad.load();
}

// --- pinned correctness values ------------------------------------------

struct Pin
{
    std::uint64_t errors = 0;
    std::uint64_t words = 0;
    double simDnnS = 0.0;
    double simViterbiS = 0.0;
};

/** The paper-style runTestSet over the first kPinnedUtterances of the
 *  evaluation set (fresh ids) with kClients worker threads. Ids never
 *  change results, so the values are the same for every seed. */
Pin
pinnedRun(Bench &b)
{
    std::vector<Utterance> set(b.evalSet.begin(),
                               b.evalSet.begin() + kPinnedUtterances);
    for (std::size_t i = 0; i < set.size(); ++i)
        set[i].id = requestId(b.opt.seed, kPhasePinned, i);
    const TestSetResult r = b.sys().runTestSet(set, b.config, kClients);
    return {r.wer.errors(), r.wer.referenceLength, r.dnn.seconds,
            r.viterbi.seconds};
}

std::string
pinLine(const char *workload, const Pin &p)
{
    char line[256];
    std::snprintf(line, sizeof(line), "%s %llu %llu %.17g %.17g",
                  workload, static_cast<unsigned long long>(p.errors),
                  static_cast<unsigned long long>(p.words), p.simDnnS,
                  p.simViterbiS);
    return line;
}

/** Pinned values of a workload, if the pins file has them. */
bool
lookupPin(const std::string &path, const char *workload, Pin &pin)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string name;
        std::string dnn, vit;
        Pin p;
        if (!(is >> name >> p.errors >> p.words >> dnn >> vit))
            continue;
        if (name != workload)
            continue;
        p.simDnnS = std::strtod(dnn.c_str(), nullptr);
        p.simViterbiS = std::strtod(vit.c_str(), nullptr);
        pin = p;
        return true;
    }
    return false;
}

/** @return 1 when the values differ from the pins or none are
 *  pinned, else 0. */
std::size_t
checkPins(Bench &b, const Pin &got)
{
    Pin want;
    if (!lookupPin(b.opt.pinsPath, b.wl->name, want)) {
        std::fprintf(stderr, "perfbench: no pinned values for %s in %s\n",
                     b.wl->name, b.opt.pinsPath.c_str());
        return 1;
    }
    const bool ok = got.errors == want.errors && got.words == want.words &&
        got.simDnnS == want.simDnnS && got.simViterbiS == want.simViterbiS;
    std::printf("pin       %s: %s\n", ok ? "match" : "MISMATCH",
                pinLine(b.wl->name, got).c_str());
    if (!ok) {
        std::fprintf(stderr, "perfbench: pinned values differ; want %s\n",
                     pinLine(b.wl->name, want).c_str());
    }
    return ok ? 0 : 1;
}

// --- serve workload -----------------------------------------------------

/** Partials of one session, written only by the worker running it. */
struct Track
{
    /** Frames covered by the latest partial. */
    std::size_t frames = 0;
    /** Arrival time of every partial. */
    std::vector<Clock::time_point> at;
};

struct ServePhase
{
    std::vector<TrafficEvent> events;
    std::vector<Track> tracks;
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> offerStart;
    std::vector<Clock::time_point> offerEnd;
    std::vector<double> genLateUs;
    std::vector<double> inflightAtOffer;
    ServeReport report;
    std::vector<SessionOutcome> outcomes;
    /** Host-speed probes the generator takes between offers. */
    SpeedTrace speed;
    Clock::time_point start;
    Clock::time_point end;

    std::uint64_t
    healthy() const
    {
        std::uint64_t n = 0;
        for (const SessionOutcome &o : outcomes)
            n += o.degraded ? 0 : 1;
        return n;
    }
};

ServeConfig
serveConfig(const Bench &b)
{
    ServeConfig sc;
    sc.system = b.config;
    sc.chunkFrames = kServeChunkFrames;
    sc.pipelineScoring = true;
    sc.threads = kServeWorkers;
    sc.admission.maxSessions = kServeBudget;
    sc.admission.maxQueueDepth = kServeBudget;
    return sc;
}

/**
 * Single-process open-loop generator: Poisson arrivals at kServeRate
 * for `seconds`, every latency timed from the session's scheduled send
 * time through the partial callback. The session population is fixed;
 * the run seed draws the order of the sessions, their arrival times and
 * their ids.
 */
ServePhase
runServe(Bench &b, std::uint64_t phase, double seconds)
{
    TrafficConfig traffic;
    traffic.sessions = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(kServeRate * seconds)));
    traffic.arrivalsPerSecond = kServeRate;
    traffic.tailShape = kServeTailShape;
    traffic.maxLengthMultiple = kServeMaxLengthMultiple;
    traffic.seed = kServeTrafficSeed;

    ServePhase out;
    out.events = SyntheticTrafficGenerator(b.evalSet, traffic).generate();
    const std::size_t n = out.events.size();
    Rng rng(mix64(b.opt.seed ^ (phase << 40)));
    for (std::size_t k = n - 1; k > 0; --k)
        std::swap(out.events[k], out.events[rng.below(k + 1)]);
    double clock = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        clock += -std::log(1.0 - rng.uniform()) / kServeRate;
        out.events[i].arrivalSeconds = clock;
        out.events[i].utterance.id = requestId(b.opt.seed, phase, i);
    }
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t i = 0; i < n; ++i)
        slot.emplace(out.events[i].utterance.id, i);
    out.tracks.resize(n);
    out.due.resize(n);
    out.offerStart.resize(n);
    out.offerEnd.resize(n);

    SpeedProbe probe;
    StreamingServer server(b.sys(), serveConfig(b));
    server.setPartialCallback(
        [&](std::uint64_t id, const PartialHypothesis &partial) {
            const auto now = Clock::now();
            Track &t = out.tracks[slot.at(id)];
            t.at.push_back(now);
            t.frames = partial.frames;
        });
    out.start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        out.due[i] =
            out.start + secondsToDuration(out.events[i].arrivalSeconds);
        std::this_thread::sleep_until(out.due[i]);
        out.offerStart[i] = Clock::now();
        out.genLateUs.push_back(usBetween(out.due[i], out.offerStart[i]));
        out.inflightAtOffer.push_back(
            static_cast<double>(server.admission().active()));
        server.offer(out.events[i].utterance);
        out.offerEnd[i] = Clock::now();
        // One probe per gap between arrivals when it fits, so the
        // generator stays idle most of the time and never offers late
        // because of it.
        if (i + 1 < n &&
            out.start + secondsToDuration(out.events[i + 1].arrivalSeconds) -
                    out.offerEnd[i] >
                kProbeGap)
            out.speed.probe(probe);
    }
    server.drain();
    out.end = Clock::now();
    out.report = server.report();
    out.outcomes = server.outcomes();
    return out;
}

/** Latencies in reference-host time, or wall time when `wall`. */
LatencyStats
serveLatencies(const ServePhase &ph, bool wall = false)
{
    const SpeedTrace *speed = wall ? nullptr : &ph.speed;
    LatencyStats s;
    for (const SessionOutcome &o : ph.outcomes) {
        if (o.degraded)
            continue;
        const Track &t = ph.tracks[o.index];
        if (t.at.empty())
            continue;
        const Clock::time_point due = ph.due[o.index];
        s.firstMs.push_back(timedUs(speed, due, t.at.front()) * 1e-3);
        s.requestMs.push_back(timedUs(speed, due, t.at.back()) * 1e-3);
        for (std::size_t k = 1; k < t.at.size(); ++k)
            s.gapUs.push_back(timedUs(speed, t.at[k - 1], t.at[k]));
    }
    return s;
}

/**
 * Every healthy session's words and cost must equal a batch decode of
 * the same utterance, and its last partial must cover every frame.
 * @return mismatches.
 */
std::size_t
checkServe(Bench &b, const ServePhase &ph)
{
    std::atomic<std::size_t> bad{0};
    ThreadPool pool(kCheckThreads);
    parallelFor(&pool, ph.outcomes.size(), [&](std::size_t k) {
        const SessionOutcome &o = ph.outcomes[k];
        if (o.degraded)
            return;
        const Utterance &u = ph.events[o.index].utterance;
        const auto scores = b.sys().scoresFor(u, b.config.prune);
        const DecodeResult batch = bareDecode(b, *scores);
        std::vector<WordId> words = o.words;
        if (b.opt.corrupt && k == 0)
            corruptWords(words);
        const bool ok = words == batch.words &&
            o.totalCost == batch.totalCost &&
            ph.tracks[o.index].frames == u.frames.size();
        if (!ok) {
            std::fprintf(stderr,
                         "perfbench: session %zu (utterance %llu) "
                         "differs from a batch decode\n",
                         o.index, static_cast<unsigned long long>(u.id));
            bad.fetch_add(1);
        }
    });
    return bad.load();
}

/** Spans of the open-loop run, recorded from the benchmark's side of
 *  the server: session (scheduled send to final partial), the offer
 *  call, and one span per partial since the previous one. */
void
serveSpans(const ServePhase &ph, SpanBuffer &buf)
{
    for (std::size_t i = 0; i < ph.events.size(); ++i) {
        const Track &t = ph.tracks[i];
        const std::uint64_t id = ph.events[i].utterance.id;
        const long root =
            buf.add("serve.session", ph.due[i],
                    t.at.empty() ? ph.offerEnd[i] : t.at.back(), id);
        buf.add("serve.offer", ph.offerStart[i], ph.offerEnd[i], id, root);
        Clock::time_point prev = ph.offerEnd[i];
        for (const Clock::time_point at : t.at) {
            buf.add("serve.partial", prev, at, id, root);
            prev = at;
        }
    }
}

// --- traced layer decomposition ----------------------------------------

/** Sums of the layer calls of one traced phase (us, frames, counts). */
struct LayerSums
{
    double spliceUs = 0.0;
    double forwardUs = 0.0;
    double scoresForUs = 0.0;
    double decodeUs = 0.0;
    double simDecodeUs = 0.0;
    double runUtteranceUs = 0.0;
    /** The untraced call each traced request is reconciled against. */
    double untracedUs = 0.0;
    double requestUs = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t survivors = 0;
    std::uint64_t peakLive = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t utterances = 0;
    std::uint64_t mismatches = 0;
    std::vector<double> runUtteranceSamples;

    void
    merge(const LayerSums &o)
    {
        spliceUs += o.spliceUs;
        forwardUs += o.forwardUs;
        scoresForUs += o.scoresForUs;
        decodeUs += o.decodeUs;
        simDecodeUs += o.simDecodeUs;
        runUtteranceUs += o.runUtteranceUs;
        untracedUs += o.untracedUs;
        requestUs += o.requestUs;
        frames += o.frames;
        survivors += o.survivors;
        peakLive += o.peakLive;
        gcRuns += o.gcRuns;
        utterances += o.utterances;
        mismatches += o.mismatches;
        runUtteranceSamples.insert(runUtteranceSamples.end(),
                                   o.runUtteranceSamples.begin(),
                                   o.runUtteranceSamples.end());
    }
};

/**
 * Time each layer's public entry point on its own, in the order the
 * system calls them: splice, forward, cold scoresFor (which repeats
 * splice and forward and adds the copy-out into AcousticScores), bare
 * decode and, on the batch workloads, decode with the accelerator-
 * simulator observer and warm-score runUtterance (decode, simulator and
 * telemetry observers). Batch requests first time the untraced call, a
 * runTestSet of the same utterance under another fresh id, so the layer
 * sums reconcile against wall time taken in the same seconds of the
 * run. `utterance(i)` yields the i-th input.
 */
template <typename Source>
LayerSums
tracedLayers(Bench &b, double seconds, bool fullSystem,
             std::vector<SpanBuffer> &buffers, Clock::time_point origin,
             Source &&utterance)
{
    for (std::size_t c = 0; c < kClients; ++c)
        buffers.emplace_back(origin, static_cast<int>(c));
    std::vector<LayerSums> perClient(kClients);
    const InferenceEngine &engine = b.sys().engineFor(b.config.prune);
    const ViterbiDecoder decoder(b.sys().fst(), DecoderConfig{b.config.beam});
    const std::size_t first = buffers.size() - kClients;

    closedLoop(seconds, [&](std::size_t c, std::size_t i) {
        SpanBuffer &buf = buffers[first + c];
        LayerSums &sum = perClient[c];
        const Utterance u = utterance(i);
        const long root = buf.open("request", u.id);
        if (fullSystem) {
            std::vector<Utterance> set{u};
            set[0].id = requestId(b.opt.seed, kPhaseReconcile, i);
            sum.untracedUs +=
                buf.timed("system.run_test_set", set[0].id, root, [&] {
                    b.sys().runTestSet(set, b.config, 1);
                });
        }

        std::vector<Vector> spliced;
        sum.spliceUs += buf.timed("corpus.splice", u.id, root, [&] {
            spliced = b.ctx->corpus.spliceUtterance(u);
        });
        std::vector<Vector> posteriors;
        sum.forwardUs += buf.timed("dnn.forward", u.id, root, [&] {
            engine.forwardAll(spliced, posteriors);
        });
        std::shared_ptr<const AcousticScores> scores;
        sum.scoresForUs += buf.timed("system.scores_for", u.id, root, [&] {
            scores = b.sys().scoresFor(u, b.config.prune);
        });
        DecodeResult bare;
        auto selector = b.sys().makeSelector(b.config);
        sum.decodeUs += buf.timed("decoder.decode", u.id, root, [&] {
            bare = decoder.decode(*scores, *selector);
        });
        sum.frames += scores->frameCount();
        sum.survivors += bare.totalSurvivors();
        sum.peakLive += bare.traceStats.peakLive;
        sum.gcRuns += bare.traceStats.gcRuns;
        ++sum.utterances;

        if (fullSystem) {
            ViterbiAcceleratorSim accel(b.sys().viterbiConfigFor(b.config),
                                        b.sys().fst());
            auto simSelector = b.sys().makeSelector(b.config);
            DecodeResult simulated;
            sum.simDecodeUs +=
                buf.timed("accel.viterbi_sim", u.id, root, [&] {
                    simulated = decoder.decode(*scores, *simSelector,
                                               &accel);
                });
            UtteranceRun run;
            const double us =
                buf.timed("system.run_utterance", u.id, root, [&] {
                    run = b.sys().runUtterance(u, b.config);
                });
            sum.runUtteranceUs += us;
            sum.runUtteranceSamples.push_back(us);
            if (simulated.words != bare.words ||
                run.decode.words != bare.words ||
                run.decode.totalCost != bare.totalCost)
                ++sum.mismatches;
        }
        sum.requestUs += buf.close(root);
    });

    LayerSums total;
    for (const LayerSums &s : perClient)
        total.merge(s);
    return total;
}

// --- reporting ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
stampJson(const Bench &b)
{
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    std::ostringstream os;
    os << "{\"host\": \"" << jsonEscape(host) << "\", \"nproc\": "
       << std::thread::hardware_concurrency() << ", \"kernel_backend\": \""
       << kernels::kernelBackendName(kernels::activeKernelBackend())
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"workload\": \"" << b.wl->name << "\", \"seed\": "
       << b.opt.seed << ", \"seconds\": " << b.opt.seconds
       << ", \"trace\": " << (b.opt.trace ? 1 : 0) << ", \"config\": \""
       << b.config.label() << "\", \"beam\": " << b.config.beam
       << ", \"mode\": \"" << (b.wl->serve ? "open" : "closed") << "-loop\"";
    if (b.wl->serve) {
        os << ", \"rate_per_s\": " << kServeRate
           << ", \"eval_utterances\": " << kEvalUtterances
           << ", \"workers\": " << kServeWorkers
           << ", \"chunk_frames\": " << kServeChunkFrames
           << ", \"pipelined_scoring\": true, \"tail_shape\": "
           << kServeTailShape
           << ", \"max_length_multiple\": " << kServeMaxLengthMultiple
           << ", \"admission_budget\": " << kServeBudget;
    } else {
        os << ", \"clients\": " << kClients
           << ", \"request\": \"runTestSet of " << kRequestUtterances
           << " utterances\""
           << ", \"nbest_entries\": " << b.config.nbestEntries
           << ", \"nbest_ways\": " << b.config.nbestWays;
    }
    os << "}";
    return os.str();
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric    %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

std::vector<Metric>
medianLatencies(const LatencyStats &lat)
{
    return {
        {"first_result_p50_ms", percentile(lat.firstMs, 50.0), "ms"},
        {"result_gap_p50_us", percentile(lat.gapUs, 50.0), "us"},
        {"request_p50_ms", percentile(lat.requestMs, 50.0), "ms"},
    };
}

/** The end-to-end metrics, times in reference-host time: medians only.
 *  The p95 latencies, which swing with the host's other tenants by more
 *  than a bound could hold, are reported by the traced run. */
std::vector<Metric>
endToEnd(const Bench &b, double framesPerS, const LatencyStats &lat,
         double okShare, double rssMb)
{
    std::vector<Metric> m = {
        {"setup_s", b.setupS, "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"ok_share", okShare, "ratio"},
        {"frames_per_s", framesPerS, "frames/s"},
    };
    const std::vector<Metric> p50 = medianLatencies(lat);
    m.insert(m.end(), p50.begin(), p50.end());
    return m;
}

std::vector<Metric>
tailLatencies(const LatencyStats &lat)
{
    return {
        {"first_result_p95_ms", percentile(lat.firstMs, 95.0), "ms"},
        {"result_gap_p95_us", percentile(lat.gapUs, 95.0), "us"},
        {"request_p95_ms", percentile(lat.requestMs, 95.0), "ms"},
    };
}

/** Serve throughput: the median over healthy sessions of frames
 *  delivered per second of session time (scheduled send to final
 *  partial), in reference-host time or, when `wall`, wall time. */
double
serveFramesPerS(const ServePhase &ph, bool wall = false)
{
    const SpeedTrace *speed = wall ? nullptr : &ph.speed;
    std::vector<double> rates;
    for (const SessionOutcome &o : ph.outcomes) {
        const Track &t = ph.tracks[o.index];
        if (o.degraded || t.at.empty())
            continue;
        const double s = timedUs(speed, ph.due[o.index], t.at.back()) * 1e-6;
        if (s > 0.0)
            rates.push_back(o.frames / s);
    }
    return median(rates);
}

/** Untimed warm-up: the same loop as the measured phase, under its own
 *  ids, so allocator pools and caches of the layers are filled. */
void
warmUp(Bench &b)
{
    const double seconds =
        std::min(kWarmupMaxSeconds, kWarmupShare * b.opt.seconds);
    if (b.wl->serve)
        runServe(b, kPhaseWarmup, seconds);
    else
        runBatch(b, kPhaseWarmup, seconds);
}

double
counterValue(const telemetry::Snapshot &s, const char *name)
{
    const auto *c = s.findCounter(name);
    return c ? static_cast<double>(c->value) : 0.0;
}

double
perFrame(double us, std::uint64_t frames)
{
    return frames ? us / static_cast<double>(frames) : 0.0;
}

// --- the two runs -------------------------------------------------------

int
untracedRun(Bench &b)
{
    std::size_t bad = 0;
    Ledger ledger{"measure"};
    // Reference-host figures (reported) and wall-clock ones (printed).
    double framesPerS = 0.0;
    double wallFramesPerS = 0.0;
    LatencyStats lat;
    LatencyStats wallLat;
    double probeNs = 0.0;
    std::size_t probes = 0;
    double rss = 0.0;
    warmUp(b);
    if (b.wl->serve) {
        const ServePhase ph = runServe(b, kPhaseMeasure, b.opt.seconds);
        rss = peakRssMb();
        lat = serveLatencies(ph);
        wallLat = serveLatencies(ph, true);
        framesPerS = serveFramesPerS(ph);
        wallFramesPerS = serveFramesPerS(ph, true);
        probeNs = ph.speed.medianNs();
        probes = ph.speed.size();
        ledger.offered = ph.report.offered;
        ledger.succeeded = ph.healthy();
        std::printf("serve     offered %llu admitted %llu shed %llu "
                    "degraded %llu frames %llu wall %.3f s "
                    "(%.0f frames/s delivered)\n",
                    static_cast<unsigned long long>(ph.report.offered),
                    static_cast<unsigned long long>(ph.report.admitted),
                    static_cast<unsigned long long>(ph.report.shed),
                    static_cast<unsigned long long>(ph.report.degraded),
                    static_cast<unsigned long long>(ph.report.frames),
                    usBetween(ph.start, ph.end) * 1e-6,
                    ph.report.frames / (usBetween(ph.start, ph.end) * 1e-6));
        bad += checkServe(b, ph);
    } else {
        const BatchPhase ph = runBatch(b, kPhaseMeasure, b.opt.seconds);
        rss = peakRssMb();
        lat = batchLatencies(ph);
        wallLat = batchLatencies(ph, true);
        // Closed-loop throughput with every client busy: the run's end,
        // where one client finishes its last request alone, is left out.
        framesPerS = kClients * ph.frames() / (ph.refBusyUs() * 1e-6);
        wallFramesPerS = kClients * ph.frames() / (ph.busyUs() * 1e-6);
        probeNs = ph.speed.medianNs();
        probes = ph.speed.size();
        ledger.offered = ph.requests.size();
        for (const Request &r : ph.requests)
            ledger.succeeded += r.degraded ? 0 : 1;
        bad += checkBatch(b, kPhaseMeasure, ph);
        bad += checkPins(b, pinnedRun(b));
    }
    ledger.failed = ledger.offered - ledger.succeeded;
    const double okShare = ledger.offered
        ? static_cast<double>(ledger.succeeded) / ledger.offered
        : 0.0;
    printLedger(Ledger{"setup", 1 + kSetupRepeats, 1 + kSetupRepeats, 0});
    printLedger(ledger);
    printLedger(Ledger{"check", ledger.succeeded, ledger.succeeded - bad,
                       bad});
    std::printf("host      probe median %.4f ns/step over %zu probes "
                "(reference %.1f): times below are scaled by %.4f\n",
                probeNs, probes, kProbeRefNs,
                probeNs > 0.0 ? kProbeRefNs / probeNs : 1.0);
    std::printf("wall      %-36s %14.6g s\n", "setup_s", b.setupWallS);
    std::printf("wall      %-36s %14.6g frames/s\n", "frames_per_s",
                wallFramesPerS);
    for (const auto &set : {medianLatencies(wallLat), tailLatencies(wallLat)}) {
        for (const Metric &m : set)
            std::printf("wall      %-36s %14.6g %s\n", m.name.c_str(),
                        m.value, m.unit.c_str());
    }
    for (const Metric &m : tailLatencies(lat))
        std::printf("tail      %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printResult(bad == 0, std::max<std::uint64_t>(1, ledger.offered),
                ledger.failed,
                endToEnd(b, framesPerS, lat, okShare, rss));
    return bad == 0 ? 0 : 3;
}

int
tracedRun(Bench &b)
{
    const auto origin = Clock::now();
    std::vector<SpanBuffer> buffers;
    auto &reg = telemetry::MetricRegistry::global();
    const double half = 0.5 * b.opt.seconds;
    std::size_t bad = 0;
    Ledger untraced{"untraced"};
    Ledger traced{"traced"};

    // Untraced phase: score-cache, pool and serve counters, and on serve
    // the session time the layer sums are compared with.
    double untracedUsPerFrame = 0.0;
    double poolEfficiency = 0.0;
    double cacheLookups = 0.0;
    double cacheHits = 0.0;
    std::vector<Metric> serveMetrics;
    std::vector<Utterance> served;
    LatencyStats lat;
    double probeNs = 0.0;
    // Score-cache traffic of the untraced phase alone: the checks and
    // the traced phase look scores up again and hit.
    const telemetry::Snapshot before = reg.snapshot();
    const auto countCacheTraffic = [&] {
        const telemetry::Snapshot after = reg.snapshot();
        cacheLookups = counterValue(after, "dnn.cache.lookup") -
            counterValue(before, "dnn.cache.lookup");
        cacheHits = counterValue(after, "dnn.cache.hit") -
            counterValue(before, "dnn.cache.hit");
    };
    if (b.wl->serve) {
        const ServePhase ph = runServe(b, kPhaseMeasure, half);
        countCacheTraffic();
        lat = serveLatencies(ph);
        probeNs = ph.speed.medianNs();
        buffers.emplace_back(origin, -1);
        serveSpans(ph, buffers.back());
        untraced.offered = ph.report.offered;
        untraced.succeeded = ph.healthy();
        double sessionUs = 0.0;
        for (const SessionOutcome &o : ph.outcomes) {
            const Track &t = ph.tracks[o.index];
            if (!o.degraded && !t.at.empty())
                sessionUs += usBetween(ph.due[o.index], t.at.back());
        }
        untracedUsPerFrame = perFrame(sessionUs, ph.report.frames);
        const PercentileTracker &chunk = ph.report.chunkLatencyUs;
        const double chunkSumUs =
            chunk.count() ? chunk.mean() * chunk.count() : 0.0;
        poolEfficiency =
            chunkSumUs / (kServeWorkers * usBetween(ph.start, ph.end));
        const ServeReport &r = ph.report;
        serveMetrics = {
            {"serve.offered", double(r.offered), "count"},
            {"serve.admitted", double(r.admitted), "count"},
            {"serve.shed.queue", double(r.shedQueue), "count"},
            {"serve.shed.deadline", double(r.shedDeadline), "count"},
            {"serve.shed.length", double(r.shedLength), "count"},
            {"serve.shed.breaker", double(r.shedBreaker), "count"},
            {"serve.shed.injected", double(r.shedInjected), "count"},
            {"serve.shed.draining", double(r.shedDraining), "count"},
            {"serve.degraded", double(r.degraded), "count"},
            {"serve.chunk_p50_us",
             chunk.count() ? chunk.percentile(50.0) : 0.0, "us"},
            {"serve.chunk_p95_us",
             chunk.count() ? chunk.percentile(95.0) : 0.0, "us"},
            {"serve.inflight_at_offer_p95",
             percentile(ph.inflightAtOffer, 95.0), "sessions"},
            {"serve.gen_late_p95_us", percentile(ph.genLateUs, 95.0), "us"},
        };
        bad += checkServe(b, ph);
        for (const TrafficEvent &e : ph.events)
            served.push_back(e.utterance);
    } else {
        const BatchPhase ph = runBatch(b, kPhaseMeasure, half);
        countCacheTraffic();
        lat = batchLatencies(ph);
        probeNs = ph.speed.medianNs();
        untraced.offered = ph.requests.size();
        for (const Request &r : ph.requests)
            untraced.succeeded += r.degraded ? 0 : 1;
        poolEfficiency =
            ph.busyUs() / (kClients * usBetween(ph.start, ph.end));
        bad += checkBatch(b, kPhaseMeasure, ph);
    }
    untraced.failed = untraced.offered - untraced.succeeded;

    // Traced phase: each layer's entry point timed on its own.
    const telemetry::Snapshot kernelsBefore = reg.snapshot();
    const LayerSums sums = tracedLayers(
        b, half, !b.wl->serve, buffers, origin, [&](std::size_t i) {
            if (!b.wl->serve)
                return b.utterance(kPhaseTrace, i);
            Utterance u = served[i % served.size()];
            u.id = requestId(b.opt.seed, kPhaseTrace, i);
            return u;
        });
    const telemetry::Snapshot kernelsAfter = reg.snapshot();
    traced.offered = sums.utterances;
    traced.succeeded = sums.utterances - sums.mismatches;
    traced.failed = sums.mismatches;
    bad += sums.mismatches;
    if (!b.wl->serve)
        untracedUsPerFrame = perFrame(sums.untracedUs, sums.frames);

    Pin pin;
    if (!b.wl->serve) {
        pin = pinnedRun(b);
        bad += checkPins(b, pin);
    }

    const std::uint64_t frames = sums.frames;
    // Frames scored in the traced phase: forwardAll and the cold
    // scoresFor, plus the untraced runTestSet on the batch workloads.
    const double scoredFrames =
        (b.wl->serve ? 2.0 : 3.0) * static_cast<double>(frames);
    const double splice = perFrame(sums.spliceUs, frames);
    const double forward = perFrame(sums.forwardUs, frames);
    const double scoresFor = perFrame(sums.scoresForUs, frames);
    const double decode = perFrame(sums.decodeUs, frames);
    const double sim = b.wl->serve
        ? 0.0
        : perFrame(sums.simDecodeUs - sums.decodeUs, frames);
    // runUtterance beyond the simulated decode: the telemetry observer,
    // the observer tee and per-utterance bookkeeping.
    const double observers = b.wl->serve
        ? 0.0
        : perFrame(sums.runUtteranceUs - sums.simDecodeUs, frames);
    // What one untraced request costs, rebuilt from its layers: a cold
    // scoresFor plus a warm-score runUtterance (batch); scoring plus
    // bare decode (serve, where chunked decode stands in for it).
    const double layerSum = scoresFor + decode + sim + observers;
    const double reconcile =
        untracedUsPerFrame > 0.0 ? layerSum / untracedUsPerFrame : 0.0;
    // Wall time of a traced request (its layer calls, spans included)
    // over the untraced request's.
    const double overhead = untracedUsPerFrame > 0.0
        ? perFrame(sums.requestUs - sums.untracedUs, frames) /
            untracedUsPerFrame
        : 0.0;

    const auto self = selfTimeUs(buffers);
    for (const auto &[name, us] : self)
        std::printf("self      %-24s %12.1f ms\n", name.c_str(), us * 1e-3);
    std::printf("reconcile layer sum %.3f us/frame vs untraced %.3f "
                "us/frame (ratio %.3f, slack %.2f%s)\n",
                layerSum, untracedUsPerFrame, reconcile, kReconcileSlack,
                b.wl->serve ? ", not held: scoring overlaps decode" : "");
    if (!b.wl->serve && std::fabs(reconcile - 1.0) > kReconcileSlack)
        std::printf("reconcile OUTSIDE SLACK\n");

    const std::string stamp = stampJson(b);
    char path[512];
    std::snprintf(path, sizeof(path), "%s/spans-%s-seed%llu.json",
                  b.opt.outDir.c_str(), b.wl->name,
                  static_cast<unsigned long long>(b.opt.seed));
    if (!writeSpans(path, stamp, buffers))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path);
    else
        std::printf("spans     %zu written to %s\n", spanCount(buffers),
                    path);

    std::vector<Metric> metrics = {
        {"corpus.splice_us_per_frame", splice, "us"},
        {"dnn.forward_us_per_frame", forward, "us"},
        {"dnn.kernel.dense_blocks",
         (counterValue(kernelsAfter, "dnn.kernel.dense_blocks") -
          counterValue(kernelsBefore, "dnn.kernel.dense_blocks")) /
             scoredFrames,
         "blocks/frame"},
        {"dnn.kernel.spmv_rows",
         (counterValue(kernelsAfter, "dnn.kernel.spmv_rows") -
          counterValue(kernelsBefore, "dnn.kernel.spmv_rows")) /
             scoredFrames,
         "rows/frame"},
        {"system.scores_for_us_per_frame", scoresFor, "us"},
        {"system.score_copyout_us_per_frame", scoresFor - splice - forward,
         "us"},
        {"dnn.cache.lookup", cacheLookups, "count"},
        {"dnn.cache.hit_ratio", cacheLookups ? cacheHits / cacheLookups : 0.0,
         "ratio"},
        {"decoder.decode_us_per_frame", decode, "us"},
        {"decoder.survivors_per_frame",
         frames ? double(sums.survivors) / frames : 0.0, "hyps"},
        {"decoder.trace_peak_live",
         sums.utterances ? double(sums.peakLive) / sums.utterances : 0.0,
         "nodes"},
        {"decoder.gc_runs",
         sums.utterances ? double(sums.gcRuns) / sums.utterances : 0.0,
         "runs/utt"},
        {"accel.viterbi_sim_us_per_frame", sim, "us"},
        {"accel.sim_dnn_s", pin.simDnnS, "s"},
        {"accel.sim_viterbi_s", pin.simViterbiS, "s"},
        {"system.run_utterance_p50_us",
         percentile(sums.runUtteranceSamples, 50.0), "us"},
        {"system.run_utterance_p95_us",
         percentile(sums.runUtteranceSamples, 95.0), "us"},
        {"util.pool_efficiency", poolEfficiency, "ratio"},
    };
    const std::vector<Metric> tails = tailLatencies(lat);
    metrics.insert(metrics.end(), tails.begin(), tails.end());
    if (serveMetrics.empty()) {
        for (const char *name :
             {"serve.offered", "serve.admitted", "serve.shed.queue",
              "serve.shed.deadline", "serve.shed.length",
              "serve.shed.breaker", "serve.shed.injected",
              "serve.shed.draining", "serve.degraded"})
            serveMetrics.push_back({name, 0.0, "count"});
        serveMetrics.push_back({"serve.chunk_p50_us", 0.0, "us"});
        serveMetrics.push_back({"serve.chunk_p95_us", 0.0, "us"});
        serveMetrics.push_back({"serve.inflight_at_offer_p95", 0.0,
                                "sessions"});
        serveMetrics.push_back({"serve.gen_late_p95_us", 0.0, "us"});
    }
    metrics.insert(metrics.end(), serveMetrics.begin(), serveMetrics.end());
    metrics.push_back(
        {"trace.scoring_share", layerSum > 0 ? scoresFor / layerSum : 0.0,
         "ratio"});
    metrics.push_back({"trace.decoder_share",
                       layerSum > 0 ? decode / layerSum : 0.0, "ratio"});
    metrics.push_back({"trace.sim_share",
                       layerSum > 0 ? sim / layerSum : 0.0, "ratio"});
    metrics.push_back({"trace.observers_share",
                       layerSum > 0 ? observers / layerSum : 0.0, "ratio"});
    metrics.push_back({"trace.reconcile_ratio", reconcile, "ratio"});
    metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});
    metrics.push_back({"host.speed_factor", probeNs / kProbeRefNs, "ratio"});

    printLedger(untraced);
    printLedger(traced);
    const std::uint64_t attempted = untraced.offered + traced.offered;
    printResult(bad == 0, std::max<std::uint64_t>(1, attempted),
                untraced.failed + traced.failed, metrics);
    return bad == 0 ? 0 : 3;
}

int
writePins(Options opt)
{
    for (const Workload &wl : kWorkloads) {
        if (wl.serve)
            continue;
        Bench b;
        b.opt = opt;
        b.wl = &wl;
        b.ctx = std::make_unique<ExperimentContext>(benchSetup(opt));
        b.config = b.ctx->setup.configFor(wl.mode, wl.level);
        b.evalSet = b.ctx->corpus.sampleUtterances(kEvalUtterances,
                                                   b.ctx->setup.testSeed);
        std::printf("%s\n", pinLine(wl.name, pinnedRun(b)).c_str());
    }
    return 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--cache-dir d] "
                 "[--pins f] [--out-dir d] [--corrupt]\n"
                 "       perfbench --write-pins [--cache-dir d]\n",
                 msg);
    return 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            const std::string name = argv[++i];
            for (const Workload &wl : kWorkloads) {
                if (name == wl.name)
                    opt.workload = &wl;
            }
            if (!opt.workload)
                return usage(("unknown workload " + name).c_str());
        } else if (a == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            opt.trace = std::atoi(argv[++i]) != 0;
        } else if (a == "--cache-dir" && hasValue) {
            opt.cacheDir = argv[++i];
        } else if (a == "--pins" && hasValue) {
            opt.pinsPath = argv[++i];
        } else if (a == "--out-dir" && hasValue) {
            opt.outDir = argv[++i];
        } else if (a == "--corrupt") {
            opt.corrupt = true;
        } else if (a == "--write-pins") {
            opt.writePins = true;
        } else {
            return usage(("bad argument " + a).c_str());
        }
    }
    if (opt.writePins)
        return writePins(opt);
    if (!opt.workload)
        return usage("--workload is required");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    Bench b;
    b.opt = opt;
    b.wl = opt.workload;
    setUp(b);
    std::printf("stamp     %s\n", stampJson(b).c_str());
    return opt.trace ? tracedRun(b) : untracedRun(b);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(argc, argv);
}
