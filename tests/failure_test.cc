/**
 * @file
 * Failure-injection tests: the library's three-tier error-handling
 * contract (DESIGN.md). Internal invariant violations panic (abort,
 * death tests); impossible configurations are fatal (exit 1, death
 * tests); operator-recoverable errors — corrupt model files,
 * truncated reads — propagate as Status through Mlp::tryLoad so
 * callers can retry or fall back. The Mlp::load wrapper stays fatal
 * for call sites where a missing model really is unrecoverable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "corpus/lexicon.hh"
#include "dnn/mlp.hh"
#include "dnn/topology.hh"
#include "nbest/selectors.hh"
#include "sim/cache_model.hh"
#include "tensor/matrix.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace darkside {
namespace {

using FailureDeathTest = ::testing::Test;

/** tryLoad must reject this file; returns the status message. */
std::string
tryLoadError(const std::string &path)
{
    auto result = Mlp::tryLoad(path);
    EXPECT_FALSE(result.isOk()) << path;
    return result.message();
}

TEST(FailureDeathTest, MatrixOutOfBoundsPanics)
{
    Matrix m(2, 3);
    EXPECT_DEATH(m.at(2, 0), "assertion");
    EXPECT_DEATH(m.at(0, 3), "assertion");
}

TEST(FailureDeathTest, GemvShapeMismatchPanics)
{
    Matrix w(2, 3);
    Vector x{1.0f, 2.0f}; // wrong length
    Vector b{0.0f, 0.0f};
    Vector y;
    EXPECT_DEATH(gemv(w, x, b, y), "assertion");
}

TEST(FailureDeathTest, SoftmaxOfEmptyVectorPanics)
{
    Vector v;
    EXPECT_DEATH(softmaxInPlace(v), "assertion");
}

TEST(FailureDeathTest, RngBelowZeroPanics)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "assertion");
}

TEST(FailureDeathTest, MlpLayerShapeMismatchPanics)
{
    Mlp mlp;
    mlp.add(std::make_unique<FullyConnected>("fc1", 4, 8));
    EXPECT_DEATH(
        mlp.add(std::make_unique<FullyConnected>("fc2", 9, 2)),
        "assertion");
}

TEST(FailureDeathTest, TrainStepWithBadLabelPanics)
{
    Rng rng(1);
    TopologyConfig config;
    config.inputDim = 4;
    config.fcWidth = 8;
    config.poolGroup = 2;
    config.hiddenBlocks = 1;
    config.classes = 3;
    Mlp mlp = KaldiTopology::build(config, rng);
    Vector in(4, 0.5f);
    EXPECT_DEATH(mlp.trainStep(in, 3, 0.1f), "assertion");
}

// Mlp::load is the die-on-error wrapper; it must still be fatal so
// setup paths keep their crash-on-misconfiguration behaviour.
TEST(FailureDeathTest, LoadMissingModelFileIsFatal)
{
    EXPECT_EXIT(Mlp::load("/nonexistent/path/model.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

// The recoverable channel: the same errors surface as Status from
// tryLoad, without killing the process.
TEST(FailureTest, TryLoadMissingModelReturnsStatus)
{
    const std::string message =
        tryLoadError("/nonexistent/path/model.bin");
    EXPECT_NE(message.find("cannot open"), std::string::npos);
}

TEST(FailureTest, TryLoadCorruptModelReturnsStatus)
{
    const std::string path = testing::TempDir() + "/corrupt_model.bin";
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a model file at all";
    }
    const std::string message = tryLoadError(path);
    EXPECT_NE(message.find("not a darkside MLP"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureDeathTest, CacheGeometryMustDivide)
{
    // 1000 B is not divisible by line * ways.
    EXPECT_DEATH(CacheModel(CacheConfig{"c", 1000, 4, 64}),
                 "assertion");
}

TEST(FailureDeathTest, NonPowerOfTwoHashRejected)
{
    EXPECT_DEATH(DirectMappedHash(100), "assertion");
    // entries/ways must leave a power-of-two set count.
    EXPECT_DEATH(SetAssociativeHash(24, 8), "assertion");
}

TEST(FailureDeathTest, HeapSetWaysBeyondInlineCapacityRejected)
{
    // A set stores at most MaxHeapSet::kMaxWays = 16 entries inline.
    EXPECT_DEATH(MaxHeapSet(17), "assertion");
    EXPECT_DEATH(MaxHeapSet(0), "assertion");
}

TEST(FailureDeathTest, MaskOnFixedLayerPanics)
{
    FullyConnected fc0("FC0", 4, 4, /*trainable=*/false);
    std::vector<std::uint8_t> mask(16, 1);
    EXPECT_DEATH(fc0.setMask(mask), "assertion");
}

TEST(FailureDeathTest, WrongSizeMaskPanics)
{
    FullyConnected fc("fc", 4, 4);
    std::vector<std::uint8_t> mask(7, 1);
    EXPECT_DEATH(fc.setMask(mask), "assertion");
}

TEST(FailureTest, LexiconImpossibleVocabularyIsFatal)
{
    // 2 phonemes, length-1 pronunciations: only 2 unique words exist.
    PhonemeInventory inv(2, 3);
    EXPECT_EXIT(Lexicon(inv, 10, 1, 1, 1),
                ::testing::ExitedWithCode(1), "unique pronunciations");
}

/** Write a crafted binary model header for loader-hardening tests. */
class ModelFileWriter
{
  public:
    explicit ModelFileWriter(const std::string &path)
        : path_(path), os_(path, std::ios::binary)
    {}

    template <typename T>
    ModelFileWriter &
    pod(T value)
    {
        os_.write(reinterpret_cast<const char *>(&value), sizeof(T));
        return *this;
    }

    ModelFileWriter &
    str(const std::string &s)
    {
        pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
    }

    ModelFileWriter &
    magic()
    {
        return pod<std::uint32_t>(0x44534d31); // "DSM1"
    }

    void close() { os_.close(); }

  private:
    std::string path_;
    std::ofstream os_;
};

TEST(FailureTest, ImplausibleLayerCountRejected)
{
    const std::string path = testing::TempDir() + "/layer_count.bin";
    ModelFileWriter w(path);
    w.magic().pod<std::uint32_t>(1000000000u);
    w.close();
    EXPECT_NE(tryLoadError(path).find("implausible layer count"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, ImplausibleLayerNameLengthRejected)
{
    const std::string path = testing::TempDir() + "/name_len.bin";
    ModelFileWriter w(path);
    w.magic()
        .pod<std::uint32_t>(1)  // one layer
        .pod<std::uint8_t>(0)   // FullyConnected
        .pod<std::uint32_t>(0xFFFFFFFFu); // absurd name length
    w.close();
    EXPECT_NE(tryLoadError(path).find("implausible layer name length"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, ImplausibleLayerDimensionsRejected)
{
    const std::string path = testing::TempDir() + "/dims.bin";
    ModelFileWriter w(path);
    w.magic()
        .pod<std::uint32_t>(1)
        .pod<std::uint8_t>(0)
        .str("fc1")
        .pod<std::uint64_t>(0)  // zero input width
        .pod<std::uint64_t>(8);
    w.close();
    EXPECT_NE(tryLoadError(path).find("implausible dimensions"),
              std::string::npos);
    std::remove(path.c_str());

    // A giant weight matrix must be rejected before any allocation.
    ModelFileWriter g(path);
    g.magic()
        .pod<std::uint32_t>(1)
        .pod<std::uint8_t>(0)
        .str("fc1")
        .pod<std::uint64_t>(1u << 20)
        .pod<std::uint64_t>(1u << 20);
    g.close();
    EXPECT_NE(tryLoadError(path).find("implausible dimensions"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, CorruptLayerKindRejected)
{
    const std::string path = testing::TempDir() + "/kind.bin";
    ModelFileWriter w(path);
    w.magic()
        .pod<std::uint32_t>(1)
        .pod<std::uint8_t>(200) // no such LayerKind
        .str("x")
        .pod<std::uint64_t>(4)
        .pod<std::uint64_t>(4);
    w.close();
    EXPECT_NE(tryLoadError(path).find("corrupt layer kind"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, MismatchedLayerWidthsRejected)
{
    const std::string path = testing::TempDir() + "/chain.bin";
    ModelFileWriter w(path);
    w.magic().pod<std::uint32_t>(2);
    // Layer 0: a valid 4-wide Renormalize.
    w.pod<std::uint8_t>(2).str("N0").pod<std::uint64_t>(4).pod<
        std::uint64_t>(4);
    // Layer 1: claims 8 inputs; the previous layer produced 4.
    w.pod<std::uint8_t>(2).str("N1").pod<std::uint64_t>(8).pod<
        std::uint64_t>(8);
    w.close();
    EXPECT_NE(
        tryLoadError(path).find("does not match the previous layer"),
        std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, InconsistentPoolingGeometryRejected)
{
    const std::string path = testing::TempDir() + "/pool.bin";
    ModelFileWriter w(path);
    w.magic().pod<std::uint32_t>(1);
    // PNormPooling 6 -> 3 but claiming group size 4 (6 % 4 != 0).
    w.pod<std::uint8_t>(1).str("P0").pod<std::uint64_t>(6).pod<
        std::uint64_t>(3);
    w.pod<std::uint64_t>(4);
    w.close();
    EXPECT_NE(tryLoadError(path).find("inconsistent pooling geometry"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, MaskOnFixedLayerInFileRejected)
{
    const std::string path = testing::TempDir() + "/fixed_mask.bin";
    ModelFileWriter w(path);
    w.magic().pod<std::uint32_t>(1);
    w.pod<std::uint8_t>(0).str("FC0").pod<std::uint64_t>(2).pod<
        std::uint64_t>(2);
    w.pod<std::uint8_t>(0); // trainable = false
    for (int i = 0; i < 4; ++i)
        w.pod<float>(0.5f); // weights
    for (int i = 0; i < 2; ++i)
        w.pod<float>(0.0f); // biases
    w.pod<std::uint8_t>(1); // mask flag on a fixed layer
    w.close();
    EXPECT_NE(
        tryLoadError(path).find("fixed but carries a prune mask"),
        std::string::npos);
    std::remove(path.c_str());
}

TEST(FailureTest, TruncatedModelFileRejected)
{
    // Write a valid model, truncate it, expect a clean Status error —
    // never a half-parsed model.
    Rng rng(1);
    TopologyConfig config;
    config.inputDim = 4;
    config.fcWidth = 8;
    config.poolGroup = 2;
    config.hiddenBlocks = 1;
    config.classes = 3;
    Mlp mlp = KaldiTopology::build(config, rng);
    const std::string path = testing::TempDir() + "/truncated.bin";
    mlp.save(path);

    // Truncate to half.
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    const auto full = static_cast<std::size_t>(is.tellg());
    is.seekg(0);
    std::string bytes(full / 2, '\0');
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    is.close();
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_NE(tryLoadError(path).find("truncated model file"),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace darkside
