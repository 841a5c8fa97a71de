/**
 * @file
 * Unit tests for the dense matrix/vector kernels and the dispatched
 * SIMD/int8 scoring kernels (tensor/kernels.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "tensor/kernels.hh"
#include "tensor/matrix.hh"

namespace darkside {
namespace {

TEST(Matrix, ConstructionZeroed)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 0.0f);
    }
}

TEST(Matrix, FillAndAccess)
{
    Matrix m(2, 2);
    m.fill(3.5f);
    EXPECT_EQ(m.at(1, 1), 3.5f);
    m.at(0, 1) = -1.0f;
    EXPECT_EQ(m.at(0, 1), -1.0f);
    EXPECT_EQ(m.rowPtr(0)[1], -1.0f);
}

TEST(Matrix, RandomizeStddev)
{
    Rng rng(1);
    Matrix m(100, 100);
    m.randomize(rng, 0.5f);
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        sum += m.data()[i];
        sum2 += m.data()[i] * m.data()[i];
    }
    const double mean = sum / static_cast<double>(m.size());
    const double var = sum2 / static_cast<double>(m.size()) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(std::sqrt(var), 0.5, 0.01);
}

TEST(Gemv, KnownProduct)
{
    Matrix w(2, 3);
    // [1 2 3; 4 5 6] * [1 1 2] + [10, 20] = [1+2+6+10, 4+5+12+20]
    float vals[] = {1, 2, 3, 4, 5, 6};
    std::copy(vals, vals + 6, w.data());
    Vector x{1, 1, 2};
    Vector b{10, 20};
    Vector y;
    gemv(w, x, b, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 19.0f);
    EXPECT_FLOAT_EQ(y[1], 41.0f);
}

TEST(Gemv, IdentityPassThrough)
{
    Matrix w(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        w.at(i, i) = 1.0f;
    Vector x{7, -2, 0.5};
    Vector b(3, 0.0f);
    Vector y;
    gemv(w, x, b, y);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(GemvTransposed, MatchesManual)
{
    Matrix w(2, 3);
    float vals[] = {1, 2, 3, 4, 5, 6};
    std::copy(vals, vals + 6, w.data());
    Vector x{2, -1};
    Vector y;
    gemvTransposed(w, x, y);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_FLOAT_EQ(y[0], 2 * 1 - 1 * 4);
    EXPECT_FLOAT_EQ(y[1], 2 * 2 - 1 * 5);
    EXPECT_FLOAT_EQ(y[2], 2 * 3 - 1 * 6);
}

TEST(AddOuterProduct, MatchesManual)
{
    Matrix w(2, 2);
    Vector a{1, 2};
    Vector b{3, 4};
    addOuterProduct(w, a, b, 0.5f);
    EXPECT_FLOAT_EQ(w.at(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(w.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(w.at(1, 0), 3.0f);
    EXPECT_FLOAT_EQ(w.at(1, 1), 4.0f);
}

TEST(Axpy, Accumulates)
{
    Vector x{1, 2, 3};
    Vector y{10, 10, 10};
    axpy(2.0f, x, y);
    EXPECT_FLOAT_EQ(y[0], 12.0f);
    EXPECT_FLOAT_EQ(y[2], 16.0f);
}

TEST(Dot, KnownValue)
{
    EXPECT_FLOAT_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0f);
}

TEST(Softmax, SumsToOne)
{
    Vector v{1.0f, 2.0f, 3.0f};
    softmaxInPlace(v);
    float sum = 0.0f;
    for (float x : v)
        sum += x;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(v[2], v[1]);
    EXPECT_GT(v[1], v[0]);
}

TEST(Softmax, StableWithLargeLogits)
{
    Vector v{1000.0f, 1000.0f, 999.0f};
    softmaxInPlace(v);
    EXPECT_FALSE(std::isnan(v[0]));
    EXPECT_NEAR(v[0], v[1], 1e-6f);
    EXPECT_LT(v[2], v[0]);
}

TEST(Softmax, UniformInput)
{
    Vector v(10, 0.0f);
    softmaxInPlace(v);
    for (float x : v)
        EXPECT_NEAR(x, 0.1f, 1e-6f);
}

TEST(LogSumExp, MatchesNaiveOnSmallValues)
{
    Vector v{0.1f, 0.2f, 0.3f};
    float naive = 0.0f;
    for (float x : v)
        naive += std::exp(x);
    EXPECT_NEAR(logSumExp(v), std::log(naive), 1e-5f);
}

TEST(LogSumExp, StableOnLargeValues)
{
    Vector v{800.0f, 801.0f};
    EXPECT_NEAR(logSumExp(v), 801.0f + std::log1p(std::exp(-1.0f)),
                1e-3f);
}

TEST(ArgMax, FindsMaximum)
{
    EXPECT_EQ(argMax({0.1f, 0.9f, 0.5f}), 1u);
    EXPECT_EQ(argMax({3.0f}), 0u);
    // Ties resolve to the first occurrence.
    EXPECT_EQ(argMax({1.0f, 1.0f}), 0u);
}

TEST(GemmBatch, RejectsMismatchedShapes)
{
    Matrix x(2, 3);
    Matrix w(4, 5); // width 5 != input width 3
    Vector b(4, 0.0f);
    Matrix y;
    EXPECT_FALSE(gemmBatch(x, w, b, y).isOk());

    Matrix w2(4, 3);
    Vector shortBias(3, 0.0f); // 3 biases for 4 outputs
    EXPECT_FALSE(gemmBatch(x, w2, shortBias, y).isOk());

    EXPECT_TRUE(gemmBatch(x, w2, b, y).isOk());
    EXPECT_EQ(y.rows(), 2u);
    EXPECT_EQ(y.cols(), 4u);
}

// ---- Dispatched kernels (tensor/kernels.hh) ------------------------

/** Backends to test: scalar always, AVX2 when this machine has it. */
std::vector<kernels::KernelBackend>
testableBackends()
{
    std::vector<kernels::KernelBackend> backends{
        kernels::KernelBackend::Scalar};
    if (kernels::avx2Available())
        backends.push_back(kernels::KernelBackend::Avx2);
    return backends;
}

/** Per-frame gemv reference: the original scoring path. */
Matrix
gemvReference(const Matrix &x, const Matrix &w, const Vector &b)
{
    Matrix y(x.rows(), w.rows());
    Vector in(w.cols()), out;
    for (std::size_t f = 0; f < x.rows(); ++f) {
        std::memcpy(in.data(), x.rowPtr(f), w.cols() * sizeof(float));
        gemv(w, in, b, out);
        std::memcpy(y.rowPtr(f), out.data(), out.size() * sizeof(float));
    }
    return y;
}

void
expectBitIdentical(const Matrix &a, const Matrix &b, const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(float)),
              0)
        << what << ": results are not bit-identical";
}

TEST(Kernels, BackendNamesStable)
{
    EXPECT_STREQ(kernels::kernelBackendName(
                     kernels::KernelBackend::Scalar),
                 "scalar");
    EXPECT_STREQ(
        kernels::kernelBackendName(kernels::KernelBackend::Avx2),
        "avx2");
}

TEST(Kernels, DenseBitIdenticalToGemvAcrossShapes)
{
    // Frame counts straddling the 8-frame SIMD groups and 4-frame
    // scalar unroll, output widths straddling the 4-row tile, input
    // widths straddling the 16-code int8 step — every remainder path.
    const std::size_t frameGrid[] = {1, 3, 4, 7, 8, 9, 16, 17, 31, 33};
    const std::size_t outGrid[] = {1, 3, 4, 5, 9};
    const std::size_t inGrid[] = {1, 7, 16, 21};
    Rng rng(7);
    for (kernels::KernelBackend backend : testableBackends()) {
        kernels::KernelScratch scratch;
        for (std::size_t frames : frameGrid) {
            for (std::size_t out : outGrid) {
                for (std::size_t in : inGrid) {
                    Matrix x(frames, in), w(out, in);
                    x.randomize(rng, 1.0f);
                    w.randomize(rng, 0.5f);
                    Vector b(out);
                    for (auto &v : b)
                        v = static_cast<float>(rng.gaussian(0.0, 1.0));
                    Matrix y;
                    ASSERT_TRUE(kernels::denseForward(x, w, b, y,
                                                      scratch, backend)
                                    .isOk());
                    const Matrix ref = gemvReference(x, w, b);
                    expectBitIdentical(
                        y, ref,
                        kernels::kernelBackendName(backend));
                }
            }
        }
    }
}

TEST(Kernels, DenseMatchesScalarGemmBatchOracle)
{
    Rng rng(11);
    Matrix x(37, 24), w(19, 24);
    x.randomize(rng, 1.0f);
    w.randomize(rng, 0.3f);
    Vector b(19, 0.25f);
    Matrix oracle;
    ASSERT_TRUE(gemmBatch(x, w, b, oracle).isOk());
    for (kernels::KernelBackend backend : testableBackends()) {
        kernels::KernelScratch scratch;
        Matrix y;
        ASSERT_TRUE(
            kernels::denseForward(x, w, b, y, scratch, backend).isOk());
        expectBitIdentical(y, oracle,
                           kernels::kernelBackendName(backend));
    }
}

TEST(Kernels, DenseRejectsMismatchedShapes)
{
    kernels::KernelScratch scratch;
    Matrix x(2, 3), w(4, 5);
    Vector b(4, 0.0f);
    Matrix y;
    EXPECT_FALSE(kernels::denseForward(x, w, b, y, scratch).isOk());
    Matrix w2(4, 3);
    Vector shortBias(2, 0.0f);
    EXPECT_FALSE(
        kernels::denseForward(x, w2, shortBias, y, scratch).isOk());
}

/** Hand-compiled CSR of a masked dense matrix (row-major scan). */
struct CsrFixture
{
    std::vector<std::size_t> rowPtr;
    std::vector<std::uint32_t> indices;
    std::vector<float> weights;
    Vector bias;

    CsrFixture(const Matrix &dense, const std::vector<std::uint8_t> &mask,
               Vector b)
        : bias(std::move(b))
    {
        rowPtr.push_back(0);
        for (std::size_t r = 0; r < dense.rows(); ++r) {
            for (std::size_t c = 0; c < dense.cols(); ++c) {
                if (mask[r * dense.cols() + c]) {
                    indices.push_back(static_cast<std::uint32_t>(c));
                    weights.push_back(dense.at(r, c));
                }
            }
            rowPtr.push_back(indices.size());
        }
    }

    kernels::CsrView
    view(std::size_t cols) const
    {
        kernels::CsrView v;
        v.rowPtr = rowPtr.data();
        v.indices = indices.data();
        v.weights = weights.data();
        v.bias = bias.data();
        v.rows = rowPtr.size() - 1;
        v.cols = cols;
        return v;
    }
};

TEST(Kernels, SparseBitIdenticalToMaskedDense)
{
    const std::size_t frameGrid[] = {1, 5, 8, 9, 24, 31};
    Rng rng(13);
    const std::size_t in = 22, out = 11;
    Matrix w(out, in);
    w.randomize(rng, 0.5f);
    // ~70% pruned mask; zero the masked weights like setMask() does.
    std::vector<std::uint8_t> mask(w.size());
    for (auto &m : mask)
        m = rng.uniform() < 0.3 ? 1 : 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (!mask[i])
            w.data()[i] = 0.0f;
    }
    Vector b(out);
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    const CsrFixture csr(w, mask, b);

    for (kernels::KernelBackend backend : testableBackends()) {
        kernels::KernelScratch scratch;
        for (std::size_t frames : frameGrid) {
            Matrix x(frames, in);
            x.randomize(rng, 1.0f);
            Matrix dense, sparse;
            ASSERT_TRUE(kernels::denseForward(x, w, b, dense, scratch,
                                              backend)
                            .isOk());
            ASSERT_TRUE(kernels::sparseForward(x, csr.view(in), sparse,
                                               scratch, backend)
                            .isOk());
            expectBitIdentical(sparse, dense,
                               kernels::kernelBackendName(backend));
        }
    }
}

TEST(Kernels, SparseRejectsMismatchedShapes)
{
    Rng rng(17);
    Matrix w(4, 6);
    w.randomize(rng, 1.0f);
    const CsrFixture csr(w, std::vector<std::uint8_t>(w.size(), 1),
                         Vector(4, 0.0f));
    kernels::KernelScratch scratch;
    Matrix x(3, 5); // width 5 != CSR cols 6
    Matrix y;
    EXPECT_FALSE(
        kernels::sparseForward(x, csr.view(6), y, scratch).isOk());
    kernels::CsrView empty;
    EXPECT_FALSE(kernels::sparseForward(x, empty, y, scratch).isOk());
}

TEST(Kernels, Int8QuantizeRoundTripsWithinHalfScale)
{
    Rng rng(19);
    Matrix w(9, 14);
    w.randomize(rng, 0.4f);
    const kernels::Int8Matrix q = kernels::Int8Matrix::quantize(w);
    ASSERT_EQ(q.rows, w.rows());
    ASSERT_EQ(q.cols, w.cols());
    ASSERT_GT(q.scale, 0.0f);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_GE(q.codes[i], -127);
        EXPECT_LE(q.codes[i], 127);
        EXPECT_NEAR(static_cast<float>(q.codes[i]) * q.scale,
                    w.data()[i], q.scale * 0.5f + 1e-7f);
    }
    const kernels::Int8Matrix zero =
        kernels::Int8Matrix::quantize(Matrix(3, 3));
    EXPECT_EQ(zero.scale, 0.0f);
}

TEST(Kernels, Int8BackendsBitIdentical)
{
    if (!kernels::avx2Available())
        GTEST_SKIP() << "AVX2 not available on this machine";
    const std::size_t frameGrid[] = {1, 7, 8, 13};
    const std::size_t inGrid[] = {1, 15, 16, 17, 40};
    const std::size_t outGrid[] = {1, 4, 6};
    Rng rng(23);
    for (std::size_t frames : frameGrid) {
        for (std::size_t in : inGrid) {
            for (std::size_t out : outGrid) {
                Matrix x(frames, in), w(out, in);
                x.randomize(rng, 1.0f);
                w.randomize(rng, 0.5f);
                const kernels::Int8Matrix q =
                    kernels::Int8Matrix::quantize(w);
                Vector b(out, 0.125f);
                kernels::KernelScratch s1, s2;
                Matrix scalar, avx2;
                ASSERT_TRUE(
                    kernels::int8Forward(x, q, b, scalar, s1,
                                         kernels::KernelBackend::Scalar)
                        .isOk());
                ASSERT_TRUE(
                    kernels::int8Forward(x, q, b, avx2, s2,
                                         kernels::KernelBackend::Avx2)
                        .isOk());
                expectBitIdentical(avx2, scalar, "int8 scalar vs avx2");
            }
        }
    }
}

TEST(Kernels, Int8WithinAnalyticErrorBound)
{
    // Per product, quantizing x to x^ = cx*sx (|x - x^| <= sx/2) and w
    // to w^ = cw*sw (|w - w^| <= sw/2) bounds the error as
    //   |w x - w^ x^| <= |w| sx/2 + |x| sw/2 + sw sx / 4,
    // and int32 accumulation adds nothing. A small multiplicative +
    // additive slack covers float rounding in the reference sum and
    // the dequant arithmetic.
    const std::size_t frames = 21, in = 30, out = 10;
    Rng rng(29);
    Matrix x(frames, in), w(out, in);
    x.randomize(rng, 1.5f);
    w.randomize(rng, 0.7f);
    Vector b(out);
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));

    const kernels::Int8Matrix q = kernels::Int8Matrix::quantize(w);
    const float sw = q.scale;

    for (kernels::KernelBackend backend : testableBackends()) {
        kernels::KernelScratch scratch;
        Matrix y;
        ASSERT_TRUE(
            kernels::int8Forward(x, q, b, y, scratch, backend).isOk());
        const Matrix ref = gemvReference(x, w, b);
        for (std::size_t f = 0; f < frames; ++f) {
            float peak = 0.0f;
            for (std::size_t c = 0; c < in; ++c)
                peak = std::max(peak, std::fabs(x.at(f, c)));
            const float sx = peak / 127.0f;
            for (std::size_t r = 0; r < out; ++r) {
                double bound = 0.0;
                for (std::size_t c = 0; c < in; ++c) {
                    bound += std::fabs(w.at(r, c)) * sx / 2.0 +
                        std::fabs(x.at(f, c)) * sw / 2.0 +
                        static_cast<double>(sw) * sx / 4.0;
                }
                bound = bound * 1.01 + 1e-4;
                EXPECT_NEAR(y.at(f, r), ref.at(f, r), bound)
                    << "frame " << f << " output " << r << " backend "
                    << kernels::kernelBackendName(backend);
            }
        }
    }
}

TEST(Kernels, Int8RejectsMismatchedShapes)
{
    Rng rng(31);
    Matrix w(4, 6);
    w.randomize(rng, 1.0f);
    const kernels::Int8Matrix q = kernels::Int8Matrix::quantize(w);
    kernels::KernelScratch scratch;
    Matrix x(2, 5); // width 5 != 6
    Matrix y;
    Vector b(4, 0.0f);
    EXPECT_FALSE(kernels::int8Forward(x, q, b, y, scratch).isOk());
    Matrix x2(2, 6);
    Vector shortBias(3, 0.0f);
    EXPECT_FALSE(
        kernels::int8Forward(x2, q, shortBias, y, scratch).isOk());
    kernels::Int8Matrix corrupt = q;
    corrupt.codes.pop_back();
    EXPECT_FALSE(
        kernels::int8Forward(x2, corrupt, b, y, scratch).isOk());
}

TEST(Kernels, ActiveBackendHonoursEnvOverride)
{
    // The test runner may pin DARKSIDE_KERNEL (the CI sanitizer job
    // exercises both arms); assert the resolution is consistent with
    // the environment rather than assuming a particular machine.
    const kernels::KernelBackend active = kernels::activeKernelBackend();
    if (const char *env = std::getenv("DARKSIDE_KERNEL")) {
        if (std::strcmp(env, "scalar") == 0) {
            EXPECT_EQ(active, kernels::KernelBackend::Scalar);
        } else if (std::strcmp(env, "avx2") == 0) {
            EXPECT_EQ(active, kernels::KernelBackend::Avx2);
        }
    } else if (kernels::avx2Available()) {
        EXPECT_EQ(active, kernels::KernelBackend::Avx2);
    } else {
        EXPECT_EQ(active, kernels::KernelBackend::Scalar);
    }
}

} // namespace
} // namespace darkside
