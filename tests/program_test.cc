#include "expr/program.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "stream/channel.h"

namespace rumor {
namespace {

TEST(ProgramTest, NullCompilesToTrue) {
  Program p = Program::Compile(nullptr);
  ExprContext ctx;
  EXPECT_TRUE(p.EvalBool(ctx));
}

TEST(ProgramTest, SimplePredicate) {
  auto e = Expr::Cmp(CmpOp::kEq, Expr::Attr(Side::kLeft, 0),
                     Expr::ConstInt(5));
  Program p = Program::Compile(e);
  Tuple yes = Tuple::MakeInts({5}, 0), no = Tuple::MakeInts({6}, 0);
  ExprContext cy{&yes, nullptr}, cn{&no, nullptr};
  EXPECT_TRUE(p.EvalBool(cy));
  EXPECT_FALSE(p.EvalBool(cn));
}

TEST(ProgramTest, ShortCircuitAnd) {
  // Right side would CHECK-fail on div-by-zero if evaluated.
  auto div = Expr::Cmp(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kDiv, Expr::ConstInt(1), Expr::ConstInt(0)),
      Expr::ConstInt(0));
  Program p = Program::Compile(Expr::And(Expr::ConstBool(false), div));
  ExprContext ctx;
  EXPECT_FALSE(p.EvalBool(ctx));
}

TEST(ProgramTest, ShortCircuitOr) {
  auto div = Expr::Cmp(
      CmpOp::kGt,
      Expr::Arith(ArithOp::kDiv, Expr::ConstInt(1), Expr::ConstInt(0)),
      Expr::ConstInt(0));
  Program p = Program::Compile(Expr::Or(Expr::ConstBool(true), div));
  ExprContext ctx;
  EXPECT_TRUE(p.EvalBool(ctx));
}

TEST(ProgramTest, ArithmeticChain) {
  // ((l.a0 + 3) * r.a1) % 7
  auto e = Expr::Arith(
      ArithOp::kMod,
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Expr::Attr(Side::kLeft, 0),
                              Expr::ConstInt(3)),
                  Expr::Attr(Side::kRight, 1)),
      Expr::ConstInt(7));
  Program p = Program::Compile(e);
  Tuple l = Tuple::MakeInts({4}, 0), r = Tuple::MakeInts({0, 5}, 0);
  ExprContext ctx{&l, &r};
  EXPECT_EQ(p.Eval(ctx).AsInt(), ((4 + 3) * 5) % 7);
}

// ---------------------------------------------------------------------------
// Property sweep: random expression trees evaluate identically as trees and
// as compiled programs — through the scalar EvalBool (fused, typed and
// generic paths) and through the batch evaluators. The tree walker
// (Expr::EvalBool) is the oracle for every fast path.

// Generates random boolean/numeric expressions over two 4-attr tuples.
// `mixed`: tuples carry some double attributes, on which the typed int
// evaluator must fall back to the generic one. `left_only`: expressions read
// only the left tuple (selection-style, what the batch evaluators take).
class RandomExprGen {
 public:
  explicit RandomExprGen(uint64_t seed, bool mixed = false,
                         bool left_only = false)
      : rng_(seed), mixed_(mixed), left_only_(left_only) {}

  // `attr <op> const`: the shape of the fused single-comparison path.
  ExprPtr Simple() {
    CmpOp op = static_cast<CmpOp>(rng_.UniformInt(0, 5));
    return Expr::Cmp(op, Expr::Attr(Side::kLeft, static_cast<int>(
                                                     rng_.UniformInt(0, 3))),
                     Expr::ConstInt(rng_.UniformInt(-10, 10)));
  }

  ExprPtr Bool(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 1 : 5));
    switch (pick) {
      case 0: {
        CmpOp op = static_cast<CmpOp>(rng_.UniformInt(0, 5));
        return Expr::Cmp(op, Num(depth - 1), Num(depth - 1));
      }
      case 1:
        return Expr::ConstBool(rng_.Bernoulli(0.5));
      case 2:
        return Expr::And(Bool(depth - 1), Bool(depth - 1));
      case 3:
        return Expr::Or(Bool(depth - 1), Bool(depth - 1));
      default:
        return Expr::Not(Bool(depth - 1));
    }
  }

  ExprPtr Num(int depth) {
    int pick = static_cast<int>(rng_.UniformInt(0, depth <= 0 ? 2 : 4));
    switch (pick) {
      case 0:
        return Expr::ConstInt(rng_.UniformInt(-20, 20));
      case 1:
        return Expr::Attr(RandomSide(),
                          static_cast<int>(rng_.UniformInt(0, 3)));
      case 2:
        return Expr::Ts(RandomSide());
      case 3: {
        // Division/modulo only by non-zero constants to keep both
        // evaluators total; modulo needs int operands, so mixed tuples get
        // division only.
        ArithOp op = mixed_ ? ArithOp::kDiv
                            : static_cast<ArithOp>(rng_.UniformInt(3, 4));
        int64_t d = rng_.UniformInt(1, 9);
        return Expr::Arith(op, Num(depth - 1), Expr::ConstInt(d));
      }
      default: {
        ArithOp op = static_cast<ArithOp>(rng_.UniformInt(0, 2));
        return Expr::Arith(op, Num(depth - 1), Num(depth - 1));
      }
    }
  }

  Tuple RandomTuple() {
    std::vector<Value> vals;
    for (int i = 0; i < 4; ++i) {
      const int64_t v = rng_.UniformInt(-10, 10);
      if (mixed_ && rng_.Bernoulli(0.25)) {
        // Whole doubles compare equal to ints; halves fall between them.
        vals.push_back(Value(static_cast<double>(v) +
                             (rng_.Bernoulli(0.5) ? 0.5 : 0.0)));
      } else {
        vals.push_back(Value(v));
      }
    }
    return Tuple::Make(vals, rng_.UniformInt(0, 1000));
  }

  bool Bernoulli(double p) { return rng_.Bernoulli(p); }

 private:
  Side RandomSide() {
    if (left_only_) return Side::kLeft;
    return rng_.Bernoulli(0.5) ? Side::kLeft : Side::kRight;
  }

  Rng rng_;
  bool mixed_;
  bool left_only_;
};

class ProgramEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramEquivalenceTest, TreeAndProgramAgree) {
  RandomExprGen gen(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr e = gen.Bool(4);
    Program p = Program::Compile(e);
    for (int i = 0; i < 20; ++i) {
      Tuple l = gen.RandomTuple(), r = gen.RandomTuple();
      ExprContext ctx{&l, &r};
      EXPECT_EQ(e->EvalBool(ctx), p.EvalBool(ctx))
          << "expr: " << e->ToString();
    }
  }
}

TEST_P(ProgramEquivalenceTest, MixedTypesTakeTypedFallback) {
  RandomExprGen gen(GetParam(), /*mixed=*/true);
  Program::ResetCounters();
  int specialized = 0;
  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr e = trial % 4 == 0 ? gen.Simple() : gen.Bool(4);
    Program p = Program::Compile(e);
    specialized += p.int_specialized();
    for (int i = 0; i < 20; ++i) {
      Tuple l = gen.RandomTuple(), r = gen.RandomTuple();
      ExprContext ctx{&l, &r};
      EXPECT_EQ(e->EvalBool(ctx), p.EvalBool(ctx))
          << "expr: " << e->ToString() << " left " << l.ToString()
          << " right " << r.ToString();
    }
  }
  EXPECT_GT(specialized, 0) << "no program took the typed path";
#if RUMOR_METRICS_ENABLED
  EXPECT_GT(Program::counters().typed_fallbacks, 0)
      << "no evaluation fell back from the typed path";
#endif
}

TEST_P(ProgramEquivalenceTest, BatchEvaluatorsAgreeWithTree) {
  constexpr int kSlot = 1;
  for (bool mixed : {false, true}) {
    RandomExprGen gen(GetParam(), mixed, /*left_only=*/true);
    std::vector<ChannelTuple> tuples;
    BitVector matches, gated;
    for (int trial = 0; trial < 50; ++trial) {
      ExprPtr e = trial % 4 == 0 ? gen.Simple() : gen.Bool(4);
      Program p = Program::Compile(e);
      tuples.clear();
      for (int i = 0; i < 20; ++i) {
        BitVector membership(2);
        if (gen.Bernoulli(0.7)) membership.Set(kSlot);
        tuples.push_back({gen.RandomTuple(), membership});
      }
      p.EvalBoolBatch(tuples.data(), tuples.size(), matches);
      p.EvalBoolBatchGated(tuples.data(), tuples.size(), kSlot, gated);
      ASSERT_EQ(matches.size(), static_cast<int>(tuples.size()));
      ASSERT_EQ(gated.size(), static_cast<int>(tuples.size()));
      for (size_t i = 0; i < tuples.size(); ++i) {
        const int bit = static_cast<int>(i);
        const bool want = e->EvalBool(ExprContext{&tuples[i].tuple, nullptr});
        EXPECT_EQ(matches.Test(bit), want)
            << "expr: " << e->ToString() << " tuple "
            << tuples[i].tuple.ToString() << " mixed " << mixed;
        EXPECT_EQ(gated.Test(bit), want && tuples[i].membership.Test(kSlot))
            << "expr: " << e->ToString() << " tuple "
            << tuples[i].tuple.ToString() << " mixed " << mixed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace rumor
