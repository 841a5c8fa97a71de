#include "decoder/acoustic.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/pod_codec.hh"

namespace darkside {

namespace {

constexpr float kProbabilityFloor = 1e-10f;

} // namespace

AcousticScores
AcousticScores::fromPosteriors(const std::vector<Vector> &posteriors,
                               float scale)
{
    ds_assert(!posteriors.empty());
    AcousticScores scores;
    scores.classes_ = posteriors.front().size();
    scores.costs_.reserve(posteriors.size() * scores.classes_);

    double confidence_sum = 0.0;
    for (const auto &frame : posteriors) {
        ds_assert(frame.size() == scores.classes_);
        float peak = 0.0f;
        for (float p : frame) {
            peak = std::max(peak, p);
            scores.costs_.push_back(
                -scale * std::log(std::max(p, kProbabilityFloor)));
        }
        confidence_sum += peak;
    }
    scores.meanConfidence_ =
        confidence_sum / static_cast<double>(posteriors.size());
    return scores;
}

AcousticScores
AcousticScores::fromMlp(const Mlp &mlp, const std::vector<Vector> &inputs,
                        float scale)
{
    return fromEngine(InferenceEngine(mlp), inputs, scale);
}

AcousticScores
AcousticScores::fromEngine(const InferenceEngine &engine,
                           const std::vector<Vector> &inputs, float scale,
                           ThreadPool *pool)
{
    std::vector<Vector> posteriors;
    engine.forwardAll(inputs, posteriors, pool);
    return fromPosteriors(posteriors, scale);
}

AcousticScores
AcousticScores::poisoned(std::size_t frames, std::size_t classes)
{
    ds_assert(frames > 0 && classes > 0);
    AcousticScores scores;
    scores.classes_ = classes;
    scores.costs_.assign(frames * classes,
                         std::numeric_limits<float>::quiet_NaN());
    scores.meanConfidence_ =
        std::numeric_limits<double>::quiet_NaN();
    return scores;
}

std::string
AcousticScores::serialize() const
{
    std::string out;
    out.reserve(24 + costs_.size() * sizeof(float));
    appendPod<std::uint64_t>(out, classes_);
    appendPod<std::uint64_t>(out, costs_.size());
    appendPod<double>(out, meanConfidence_);
    out.append(reinterpret_cast<const char *>(costs_.data()),
               costs_.size() * sizeof(float));
    return out;
}

Result<AcousticScores>
AcousticScores::deserialize(const std::string &bytes,
                            const std::string &context)
{
    const auto malformed = [&context]() {
        return Status::error("'" + context +
                             "': malformed acoustic-score payload");
    };
    std::size_t offset = 0;
    std::uint64_t classes = 0;
    std::uint64_t cost_count = 0;
    double mean_confidence = 0.0;
    if (!consumePod(bytes, offset, classes) ||
        !consumePod(bytes, offset, cost_count) ||
        !consumePod(bytes, offset, mean_confidence)) {
        return malformed();
    }
    AcousticScores scores;
    if (classes == 0 || cost_count == 0 || cost_count % classes != 0 ||
        !consumePodVector(bytes, offset, cost_count, scores.costs_) ||
        offset != bytes.size()) {
        return malformed();
    }
    scores.classes_ = static_cast<std::size_t>(classes);
    scores.meanConfidence_ = mean_confidence;
    return scores;
}

ScoreMatrixBuilder::ScoreMatrixBuilder(const InferenceEngine &engine,
                                       const std::vector<Vector> &inputs,
                                       float scale)
    : engine_(&engine), inputs_(&inputs), scale_(scale),
      total_(inputs.size()), posteriors_(inputs.size())
{
    ds_assert(!inputs.empty());
    scores_.classes_ = engine.outputSize();
    // Full allocation up front: rows never move, so a reader may hold
    // row pointers below the scored boundary while later windows land.
    scores_.costs_.assign(total_ * scores_.classes_,
                          std::numeric_limits<float>::quiet_NaN());
}

bool
ScoreMatrixBuilder::scoreTo(std::size_t upTo)
{
    ds_assert(upTo <= total_);
    if (upTo <= scored_)
        return true;

    engine_->forwardRange(*inputs_, scored_, upTo, posteriors_, ws_);

    // Exactly fromPosteriors' per-frame arithmetic, in frame order:
    // identical cost values and an identical confidence accumulation
    // order, so the completed matrix is bit-identical to the batch
    // path for any window boundaries.
    bool all_finite = true;
    for (std::size_t f = scored_; f < upTo; ++f) {
        Vector &frame = posteriors_[f];
        ds_assert(frame.size() == scores_.classes_);
        float *row = scores_.costs_.data() + f * scores_.classes_;
        float peak = 0.0f;
        std::size_t j = 0;
        for (float p : frame) {
            peak = std::max(peak, p);
            const float cost =
                -scale_ * std::log(std::max(p, kProbabilityFloor));
            all_finite = all_finite && std::isfinite(cost);
            row[j++] = cost;
        }
        confidenceSum_ += peak;
        Vector().swap(frame); // keep live scratch to one window
    }
    scored_ = upTo;
    return all_finite;
}

AcousticScores
ScoreMatrixBuilder::take() &&
{
    ds_assert(complete());
    scores_.meanConfidence_ =
        confidenceSum_ / static_cast<double>(total_);
    return std::move(scores_);
}

bool
AcousticScores::finite() const
{
    for (float c : costs_) {
        if (!std::isfinite(c))
            return false;
    }
    return true;
}

} // namespace darkside
