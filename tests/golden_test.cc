/**
 * @file
 * Golden regression baseline: tests/golden/baseline.json pins the
 * behavioural outputs of the miniature seeded experiment — WER, mean
 * acoustic confidence and hypotheses/frame per pruning level — so a
 * future perf PR that silently shifts decode behaviour fails here
 * rather than in a bench nobody reran.
 *
 * The derived values are deterministic (seeded corpus, seeded
 * training, integer survivor counts), but the comparison allows a
 * small tolerance so a compiler's float reassociation does not count
 * as drift.
 *
 * tests/golden/accel_sim.json pins the Viterbi accelerator simulator
 * exactly: every ViterbiSimResult field of a decode per configuration,
 * with a fresh simulator per utterance (as runUtterance runs it) and
 * with one warm simulator across the test set. The simulated seconds
 * and joules behind the paper's speedup and energy claims come from
 * these counters, so no tolerance applies: a simulator refactor must
 * reproduce them bit for bit.
 *
 * Regenerate after an *intentional* behaviour change with:
 *   DS_GOLDEN_REGENERATE=1 ./build/tests/golden_test
 * and commit the diff of tests/golden/ alongside the change that
 * caused it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/viterbi/viterbi_accel.hh"
#include "mini_setup.hh"
#include "util/json.hh"

namespace darkside {
namespace {

#ifndef DS_GOLDEN_DIR
#error "DS_GOLDEN_DIR must point at tests/golden"
#endif

const char *const kBaselinePath = DS_GOLDEN_DIR "/baseline.json";
const char *const kAccelSimPath = DS_GOLDEN_DIR "/accel_sim.json";

struct GoldenRow
{
    PruneLevel level;
    double wer = 0.0;
    double meanConfidence = 0.0;
    double hypsPerFrame = 0.0;
};

/** A row of the `selectors` array: a frame-adaptive search mode at a
 *  pruning level. */
struct SelectorGoldenRow
{
    SearchMode mode;
    PruneLevel level;
    double wer = 0.0;
    double meanConfidence = 0.0;
    double hypsPerFrame = 0.0;
};

ExperimentContext &
context()
{
    static ExperimentContext ctx(miniSetup());
    return ctx;
}

std::vector<GoldenRow>
derive()
{
    auto &ctx = context();
    std::vector<GoldenRow> rows;
    for (PruneLevel level :
         {PruneLevel::None, PruneLevel::P70, PruneLevel::P90}) {
        const TestSetResult r = ctx.system.runTestSet(
            ctx.testSet,
            ctx.setup.configFor(SearchMode::Baseline, level));
        rows.push_back({level, r.wer.wordErrorRate(),
                        r.meanConfidence, r.meanSurvivorsPerFrame()});
    }
    return rows;
}

std::vector<SelectorGoldenRow>
deriveSelectors()
{
    auto &ctx = context();
    std::vector<SelectorGoldenRow> rows;
    for (SearchMode mode : {SearchMode::RelativeThreshold,
                            SearchMode::AdaptiveBeam}) {
        for (PruneLevel level : {PruneLevel::None, PruneLevel::P90}) {
            const TestSetResult r = ctx.system.runTestSet(
                ctx.testSet, ctx.setup.configFor(mode, level));
            rows.push_back({mode, level, r.wer.wordErrorRate(),
                            r.meanConfidence,
                            r.meanSurvivorsPerFrame()});
        }
    }
    return rows;
}

void
writeBaseline(const std::vector<GoldenRow> &rows,
              const std::vector<SelectorGoldenRow> &selector_rows)
{
    std::ofstream os(kBaselinePath);
    ASSERT_TRUE(os.is_open()) << kBaselinePath;
    os << "{\n  \"schema\": \"darkside-golden-v2\",\n"
       << "  \"setup\": \"miniSetup(777), Baseline search mode\",\n"
       << "  \"levels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "    {\"level\": \"%s\", \"wer\": %.6f, "
                      "\"mean_confidence\": %.6f, "
                      "\"hyps_per_frame\": %.4f}%s\n",
                      pruneLevelName(rows[i].level), rows[i].wer,
                      rows[i].meanConfidence, rows[i].hypsPerFrame,
                      i + 1 < rows.size() ? "," : "");
        os << buf;
    }
    os << "  ],\n  \"selectors\": [\n";
    for (std::size_t i = 0; i < selector_rows.size(); ++i) {
        const SelectorGoldenRow &row = selector_rows[i];
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "    {\"mode\": \"%s\", \"level\": \"%s\", "
                      "\"wer\": %.6f, \"mean_confidence\": %.6f, "
                      "\"hyps_per_frame\": %.4f}%s\n",
                      searchModeName(row.mode),
                      pruneLevelName(row.level), row.wer,
                      row.meanConfidence, row.hypsPerFrame,
                      i + 1 < selector_rows.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
}

/** Compare one derived triple against a committed JSON entry. */
void
expectRowNear(const JsonValue &entry, const std::string &label,
              double wer, double confidence, double hyps)
{
    ASSERT_TRUE(entry.member("wer") &&
                entry.member("mean_confidence") &&
                entry.member("hyps_per_frame"))
        << label;
    EXPECT_NEAR(wer, entry.member("wer")->asNumber(), 0.05) << label;
    EXPECT_NEAR(confidence,
                entry.member("mean_confidence")->asNumber(), 0.03)
        << label;
    const double golden_hyps =
        entry.member("hyps_per_frame")->asNumber();
    EXPECT_NEAR(hyps, golden_hyps, 0.15 * golden_hyps) << label;
}

TEST(GoldenRegression, MatchesCommittedBaseline)
{
    const std::vector<GoldenRow> rows = derive();
    const std::vector<SelectorGoldenRow> selector_rows =
        deriveSelectors();

    // The paper's core effect must hold before anything is compared:
    // pruning keeps WER in the same ballpark while inflating the
    // number of hypotheses the search has to carry.
    EXPECT_GT(rows[2].hypsPerFrame, rows[0].hypsPerFrame);

    if (std::getenv("DS_GOLDEN_REGENERATE")) {
        writeBaseline(rows, selector_rows);
        std::printf("golden baseline regenerated at %s\n",
                    kBaselinePath);
        return;
    }

    std::ifstream is(kBaselinePath);
    ASSERT_TRUE(is.is_open())
        << kBaselinePath
        << " missing; regenerate with DS_GOLDEN_REGENERATE=1";
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    const JsonValue root = JsonValue::parse(buf.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.member("schema") &&
                root.member("schema")->asString() ==
                    "darkside-golden-v2");
    const JsonValue *levels = root.member("levels");
    ASSERT_TRUE(levels && levels->isArray());
    ASSERT_EQ(levels->asArray().size(), rows.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const JsonValue &entry = levels->asArray()[i];
        ASSERT_TRUE(entry.isObject());
        const std::string label = pruneLevelName(rows[i].level);
        ASSERT_TRUE(entry.member("level"));
        EXPECT_EQ(entry.member("level")->asString(), label);
        expectRowNear(entry, label, rows[i].wer,
                      rows[i].meanConfidence, rows[i].hypsPerFrame);
    }

    // The frame-adaptive selectors are pinned the same way: a change
    // to their margin arithmetic or defaults shows up as drift here.
    const JsonValue *selectors = root.member("selectors");
    ASSERT_TRUE(selectors && selectors->isArray());
    ASSERT_EQ(selectors->asArray().size(), selector_rows.size());
    for (std::size_t i = 0; i < selector_rows.size(); ++i) {
        const JsonValue &entry = selectors->asArray()[i];
        ASSERT_TRUE(entry.isObject());
        const SelectorGoldenRow &row = selector_rows[i];
        const std::string label = std::string(searchModeName(row.mode)) +
            "-" + pruneLevelName(row.level);
        ASSERT_TRUE(entry.member("mode") && entry.member("level"));
        EXPECT_EQ(entry.member("mode")->asString(),
                  searchModeName(row.mode));
        EXPECT_EQ(entry.member("level")->asString(),
                  pruneLevelName(row.level));
        expectRowNear(entry, label, row.wer, row.meanConfidence,
                      row.hypsPerFrame);
    }
}

/** One pinned simulator outcome: a configuration, a cache geometry,
 *  and either one utterance on a fresh simulator or the whole test set
 *  on a warm one. */
struct SimGoldenRow
{
    std::string label;
    ViterbiSimResult result;
};

/** The integer fields of a ViterbiSimResult, in golden-file order. */
std::vector<std::pair<const char *, std::uint64_t>>
simCounters(const ViterbiSimResult &r)
{
    return {{"cycles", r.cycles},
            {"frames", r.frames},
            {"miss_lines", r.missLines},
            {"overflow_lines", r.overflowLines},
            {"state_hits", r.stateCache.hits},
            {"state_misses", r.stateCache.misses},
            {"arc_hits", r.arcCache.hits},
            {"arc_misses", r.arcCache.misses},
            {"lattice_hits", r.latticeCache.hits},
            {"lattice_misses", r.latticeCache.misses}};
}

/** The floating-point fields, written with %.17g so they round-trip
 *  exactly. */
std::vector<std::pair<const char *, double>>
simReals(const ViterbiSimResult &r)
{
    return {{"seconds", r.seconds},
            {"dynamic_j", r.energy.dynamicJoules()},
            {"static_j", r.energy.staticJoules()}};
}

std::vector<SimGoldenRow>
deriveSimRows()
{
    auto &ctx = context();
    // Caches small enough that the mini graph evicts: exercises LRU
    // replacement over non-power-of-two set counts (3, 6 and 5 sets),
    // which the platform geometry never reaches on a 50-word graph.
    ViterbiAccelConfig tiny;
    tiny.stateCache = CacheConfig{"state-cache", 768, 4, 64};
    tiny.arcCache = CacheConfig{"arc-cache", 3 * 1024, 8, 64};
    tiny.latticeCache = CacheConfig{"lattice-cache", 640, 2, 64};

    struct Variant
    {
        SearchMode mode;
        PruneLevel level;
        bool tinyCaches;
    };
    const Variant variants[] = {
        {SearchMode::Baseline, PruneLevel::None, false},
        {SearchMode::Baseline, PruneLevel::P90, false},
        {SearchMode::NBestHash, PruneLevel::None, false},
        {SearchMode::NBestHash, PruneLevel::P90, false},
        {SearchMode::Baseline, PruneLevel::P90, true},
        {SearchMode::NBestHash, PruneLevel::P90, true},
    };

    std::vector<SimGoldenRow> rows;
    for (const Variant &v : variants) {
        const SystemConfig config = ctx.setup.configFor(v.mode, v.level);
        ViterbiAccelConfig vc = ctx.system.viterbiConfigFor(config);
        if (v.tinyCaches) {
            vc.stateCache = tiny.stateCache;
            vc.arcCache = tiny.arcCache;
            vc.latticeCache = tiny.latticeCache;
        }
        const ViterbiDecoder decoder(ctx.system.fst(),
                                     DecoderConfig{config.beam});
        const std::string label = config.label() +
            (v.tinyCaches ? "/tiny" : "/platform");

        ViterbiAcceleratorSim warm(vc, ctx.system.fst());
        for (std::size_t i = 0; i < ctx.testSet.size(); ++i) {
            const auto scores =
                ctx.system.scoresFor(ctx.testSet[i], v.level);
            auto selector = ctx.system.makeSelector(config);
            ViterbiAcceleratorSim fresh(vc, ctx.system.fst());
            decoder.decode(*scores, *selector, &fresh);
            rows.push_back({label + "/fresh/utt" + std::to_string(i),
                            fresh.result()});
            decoder.decode(*scores, *selector, &warm);
        }
        rows.push_back({label + "/warm", warm.result()});
    }
    return rows;
}

void
writeSimGolden(const std::vector<SimGoldenRow> &rows)
{
    std::ofstream os(kAccelSimPath);
    ASSERT_TRUE(os.is_open()) << kAccelSimPath;
    os << "{\n  \"schema\": \"darkside-golden-accel-sim-v1\",\n"
       << "  \"setup\": \"miniSetup(777) test set; config/caches/"
          "fresh simulator per utterance or one warm simulator\",\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << "    {\"run\": \"" << rows[i].label << "\"";
        for (const auto &[name, value] : simCounters(rows[i].result))
            os << ", \"" << name << "\": " << value;
        for (const auto &[name, value] : simReals(rows[i].result)) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", value);
            os << ", \"" << name << "\": " << buf;
        }
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

TEST(GoldenRegression, AcceleratorSimMatchesCommittedGolden)
{
    const std::vector<SimGoldenRow> rows = deriveSimRows();

    if (std::getenv("DS_GOLDEN_REGENERATE")) {
        writeSimGolden(rows);
        std::printf("accelerator-sim golden regenerated at %s\n",
                    kAccelSimPath);
        return;
    }

    std::ifstream is(kAccelSimPath);
    ASSERT_TRUE(is.is_open())
        << kAccelSimPath
        << " missing; regenerate with DS_GOLDEN_REGENERATE=1";
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string error;
    const JsonValue root = JsonValue::parse(buf.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(root.member("schema") &&
                root.member("schema")->asString() ==
                    "darkside-golden-accel-sim-v1");
    const JsonValue *runs = root.member("runs");
    ASSERT_TRUE(runs && runs->isArray());
    ASSERT_EQ(runs->asArray().size(), rows.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const JsonValue &entry = runs->asArray()[i];
        const std::string &label = rows[i].label;
        ASSERT_TRUE(entry.isObject() && entry.member("run"));
        ASSERT_EQ(entry.member("run")->asString(), label);
        for (const auto &[name, value] : simCounters(rows[i].result)) {
            const JsonValue *pinned = entry.member(name);
            ASSERT_TRUE(pinned) << label << " " << name;
            EXPECT_EQ(value,
                      static_cast<std::uint64_t>(pinned->asNumber()))
                << label << " " << name;
        }
        for (const auto &[name, value] : simReals(rows[i].result)) {
            const JsonValue *pinned = entry.member(name);
            ASSERT_TRUE(pinned) << label << " " << name;
            // Exact: %.17g round-trips every double.
            EXPECT_EQ(value, pinned->asNumber()) << label << " " << name;
        }
    }
}

} // namespace
} // namespace darkside
