// Data movement of the simulated MPI collectives: the reduction kernel
// against a scalar reference, every all-wait collective with distinct
// per-rank payloads under every arrival order, the aliasing check, and the
// copies the rooted collectives must keep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "test_util.hpp"

namespace ats::mpi {
namespace {

MpiRunOptions clean_options(int nprocs) {
  MpiRunOptions opt;
  opt.nprocs = nprocs;
  opt.cost = testutil::clean_mpi_cost();
  return opt;
}

// ------------------------------------------------------------ reduce_combine

/// One element of `op`, written out without the library's helpers.
template <typename T>
T reference_op(ReduceOp op, T acc, T in) {
  switch (op) {
    case ReduceOp::kSum: return static_cast<T>(acc + in);
    case ReduceOp::kProd: return static_cast<T>(acc * in);
    case ReduceOp::kMin: return in < acc ? in : acc;
    case ReduceOp::kMax: return acc < in ? in : acc;
    case ReduceOp::kLand:
      return static_cast<T>(acc != T{} && in != T{} ? 1 : 0);
    case ReduceOp::kLor:
      return static_cast<T>(acc != T{} || in != T{} ? 1 : 0);
  }
  return acc;
}

/// Values with negatives, zeros and mixed signs; floats also get -0.0 and
/// one quiet NaN (a single NaN pattern, so results do not depend on which
/// operand's payload the hardware propagates).
template <typename T>
std::vector<T> sample_values(int count, int salt) {
  std::vector<T> v(static_cast<std::size_t>(count));
  std::uint32_t x = 2463534242u + static_cast<std::uint32_t>(salt) * 7919u;
  for (int i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    const int k = static_cast<int>(x % 23) - 11;  // -11 .. 11
    T val{};
    if constexpr (std::is_floating_point_v<T>) {
      val = static_cast<T>(k) / static_cast<T>(4);
      if (x % 31 == 0) val = static_cast<T>(-0.0);
      if (x % 37 == 0) val = std::numeric_limits<T>::quiet_NaN();
    } else if constexpr (sizeof(T) == 1) {
      val = static_cast<T>(static_cast<int>(x % 256) - 128);  // wraps on sum
    } else {
      val = static_cast<T>(k * 97);
    }
    if (i % 5 == 0) val = T{};
    v[static_cast<std::size_t>(i)] = val;
  }
  return v;
}

template <typename T>
void expect_combine_matches_reference(Datatype type) {
  const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kProd, ReduceOp::kMin,
                          ReduceOp::kMax, ReduceOp::kLand, ReduceOp::kLor};
  for (const ReduceOp op : ops) {
    for (const int count : {1, 3, 7, 15, 17, 33, 63, 65, 129}) {
      const std::vector<T> in = sample_values<T>(count, count);
      std::vector<T> got = sample_values<T>(count, count + 1000);
      std::vector<T> want = got;
      for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] = reference_op(op, want[i], in[i]);
      }
      reduce_combine(op, type, in.data(), got.data(), count);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), sizeof(T) * want.size()), 0)
          << to_string(op) << " " << to_string(type) << " count " << count;
    }
  }
}

TEST(ReduceCombine, MatchesScalarReferenceBitForBit) {
  expect_combine_matches_reference<std::int8_t>(Datatype::kByte);
  expect_combine_matches_reference<std::int8_t>(Datatype::kChar);
  expect_combine_matches_reference<std::int32_t>(Datatype::kInt32);
  expect_combine_matches_reference<std::int64_t>(Datatype::kInt64);
  expect_combine_matches_reference<float>(Datatype::kFloat);
  expect_combine_matches_reference<double>(Datatype::kDouble);
}

TEST(ReduceCombine, ZeroCountTouchesNothing) {
  double in = 1.0, inout = 2.0;
  reduce_combine(ReduceOp::kSum, Datatype::kDouble, &in, &inout, 0);
  EXPECT_EQ(inout, 2.0);
}

// ------------------------------------------------- all-wait collectives

constexpr int kRanks = 5;
constexpr int kCount = 3;  // elements per block

/// Distinct value for (rank, element).
std::int32_t payload(int rank, int elem) { return 100 * rank + elem - 7; }

/// Delays every rank but `last` by its rank number of milliseconds and
/// `last` by more, so `last` is the arriver that computes the outputs.
void arrive_with_last(Proc& p, int last) {
  const int me = p.world_rank();
  p.sim().advance(VDur::millis(me == last ? 50 : me));
}

class AllWaitLastArriver : public ::testing::TestWithParam<int> {};

TEST_P(AllWaitLastArriver, AllreduceReducesDistinctPayloads) {
  const int last = GetParam();
  std::vector<std::vector<std::int32_t>> got(kRanks);
  run_mpi(clean_options(kRanks), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s(kCount), r(kCount, -1);
    for (int e = 0; e < kCount; ++e) {
      s[static_cast<std::size_t>(e)] = payload(me, e);
    }
    const auto sent = s;
    arrive_with_last(p, last);
    p.allreduce(s.data(), r.data(), kCount, Datatype::kInt32, ReduceOp::kMax,
                p.comm_world());
    EXPECT_EQ(s, sent) << "send buffer modified";
    got[static_cast<std::size_t>(me)] = r;
  });
  std::vector<std::int32_t> want(kCount);
  for (int e = 0; e < kCount; ++e) {
    want[static_cast<std::size_t>(e)] = payload(kRanks - 1, e);
  }
  for (const auto& g : got) EXPECT_EQ(g, want);
}

TEST_P(AllWaitLastArriver, AlltoallTransposesDistinctPayloads) {
  const int last = GetParam();
  std::vector<std::vector<std::int32_t>> got(kRanks);
  run_mpi(clean_options(kRanks), [&](Proc& p) {
    const int me = p.world_rank();
    // Block j of rank me's send buffer is addressed to rank j.
    std::vector<std::int32_t> s(kCount * kRanks), r(kCount * kRanks, -1);
    for (int j = 0; j < kRanks; ++j) {
      for (int e = 0; e < kCount; ++e) {
        s[static_cast<std::size_t>(j * kCount + e)] =
            payload(me, 10 * j + e);
      }
    }
    const auto sent = s;
    arrive_with_last(p, last);
    p.alltoall(s.data(), kCount, r.data(), kCount, Datatype::kInt32,
               p.comm_world());
    EXPECT_EQ(s, sent) << "send buffer modified";
    got[static_cast<std::size_t>(me)] = r;
  });
  for (int me = 0; me < kRanks; ++me) {
    for (int j = 0; j < kRanks; ++j) {
      for (int e = 0; e < kCount; ++e) {
        EXPECT_EQ(got[static_cast<std::size_t>(me)]
                     [static_cast<std::size_t>(j * kCount + e)],
                  payload(j, 10 * me + e))
            << "rank " << me << " block " << j;
      }
    }
  }
}

TEST_P(AllWaitLastArriver, AllgatherConcatenatesDistinctPayloads) {
  const int last = GetParam();
  std::vector<std::vector<std::int32_t>> got(kRanks);
  run_mpi(clean_options(kRanks), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s(kCount), r(kCount * kRanks, -1);
    for (int e = 0; e < kCount; ++e) {
      s[static_cast<std::size_t>(e)] = payload(me, e);
    }
    const auto sent = s;
    arrive_with_last(p, last);
    p.allgather(s.data(), kCount, r.data(), kCount, Datatype::kInt32,
                p.comm_world());
    EXPECT_EQ(s, sent) << "send buffer modified";
    got[static_cast<std::size_t>(me)] = r;
  });
  std::vector<std::int32_t> want;
  for (int j = 0; j < kRanks; ++j) {
    for (int e = 0; e < kCount; ++e) want.push_back(payload(j, e));
  }
  for (const auto& g : got) EXPECT_EQ(g, want);
}

TEST_P(AllWaitLastArriver, ScanPrefixesDistinctPayloads) {
  const int last = GetParam();
  std::vector<std::vector<std::int32_t>> got(kRanks);
  run_mpi(clean_options(kRanks), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s(kCount), r(kCount, -1);
    for (int e = 0; e < kCount; ++e) {
      s[static_cast<std::size_t>(e)] = payload(me, e);
    }
    const auto sent = s;
    arrive_with_last(p, last);
    p.scan(s.data(), r.data(), kCount, Datatype::kInt32, ReduceOp::kSum,
           p.comm_world());
    EXPECT_EQ(s, sent) << "send buffer modified";
    got[static_cast<std::size_t>(me)] = r;
  });
  for (int me = 0; me < kRanks; ++me) {
    for (int e = 0; e < kCount; ++e) {
      std::int32_t want = 0;
      for (int j = 0; j <= me; ++j) want += payload(j, e);
      EXPECT_EQ(got[static_cast<std::size_t>(me)][static_cast<std::size_t>(e)],
                want)
          << "rank " << me;
    }
  }
}

TEST_P(AllWaitLastArriver, ReduceScatterBlockDistributesDistinctPayloads) {
  const int last = GetParam();
  std::vector<std::vector<double>> got(kRanks);
  run_mpi(clean_options(kRanks), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<double> s(kCount * kRanks), r(kCount, -1.0);
    for (int j = 0; j < kRanks; ++j) {
      for (int e = 0; e < kCount; ++e) {
        s[static_cast<std::size_t>(j * kCount + e)] =
            payload(me, 10 * j + e) * 0.25;
      }
    }
    const auto sent = s;
    arrive_with_last(p, last);
    p.reduce_scatter_block(s.data(), r.data(), kCount, Datatype::kDouble,
                           ReduceOp::kSum, p.comm_world());
    EXPECT_EQ(s, sent) << "send buffer modified";
    got[static_cast<std::size_t>(me)] = r;
  });
  for (int me = 0; me < kRanks; ++me) {
    for (int e = 0; e < kCount; ++e) {
      // Same left-to-right order as the runtime: rank 0 first.
      double want = payload(0, 10 * me + e) * 0.25;
      for (int j = 1; j < kRanks; ++j) {
        want += payload(j, 10 * me + e) * 0.25;
      }
      EXPECT_EQ(got[static_cast<std::size_t>(me)][static_cast<std::size_t>(e)],
                want)
          << "rank " << me;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryRank, AllWaitLastArriver,
                         ::testing::Range(0, kRanks));

// ------------------------------------------------------- aliasing check

TEST(AllWaitAliasing, OverlappingSendAndReceiveRangesThrow) {
  // Each call runs on every rank, so whichever rank is scheduled first
  // raises the error before anyone can wait for it.
  const auto expect_overlap_error = [](const std::function<void(Proc&)>& f) {
    EXPECT_THROW(run_mpi(clean_options(3), f), MpiError);
  };
  expect_overlap_error([](Proc& p) {
    std::vector<std::int32_t> b(4, 1);
    p.allreduce(b.data(), b.data(), 4, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
  });
  expect_overlap_error([](Proc& p) {
    // Receive range starts inside the send range.
    std::vector<std::int32_t> b(8, 1);
    p.allreduce(b.data(), b.data() + 3, 4, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
  });
  expect_overlap_error([](Proc& p) {
    std::vector<std::int32_t> b(6, 1);
    p.alltoall(b.data() + 1, 1, b.data(), 1, Datatype::kInt32,
               p.comm_world());
  });
  expect_overlap_error([](Proc& p) {
    // Send block sits inside the receive range (MPI_IN_PLACE style).
    std::vector<std::int32_t> b(3, 1);
    p.allgather(b.data() + p.world_rank(), 1, b.data(), 1, Datatype::kInt32,
                p.comm_world());
  });
  expect_overlap_error([](Proc& p) {
    double b = 1.0;
    p.scan(&b, &b, 1, Datatype::kDouble, ReduceOp::kSum, p.comm_world());
  });
  expect_overlap_error([](Proc& p) {
    std::vector<double> b(3, 1.0);
    p.reduce_scatter_block(b.data(), b.data() + 2, 1, Datatype::kDouble,
                           ReduceOp::kSum, p.comm_world());
  });
}

TEST(AllWaitAliasing, AdjacentRangesAndEmptyCallsAreAccepted) {
  std::vector<std::vector<std::int32_t>> got(3);
  run_mpi(clean_options(3), [&](Proc& p) {
    const int me = p.world_rank();
    // One allocation: send range [0, 2), receive range [2, 4).
    std::vector<std::int32_t> b = {me, 10 * me, -1, -1};
    p.allreduce(b.data(), b.data() + 2, 2, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
    // Zero-length ranges never overlap, even at the same address.
    p.allreduce(b.data(), b.data(), 0, Datatype::kInt32, ReduceOp::kSum,
                p.comm_world());
    got[static_cast<std::size_t>(me)] = b;
  });
  for (int me = 0; me < 3; ++me) {
    EXPECT_EQ(got[static_cast<std::size_t>(me)],
              (std::vector<std::int32_t>{me, 10 * me, 3, 30}));
  }
}

// ---------------------------------------- rooted collectives keep copies

// A non-root of a root-sink collective leaves at its own enter + cost.  It
// may reuse its send buffer before a late root collects, so the runtime
// must have copied the contribution.

TEST(RootedCopies, GatherSurvivesNonRootsReusingTheirSendBuffer) {
  constexpr int kRoot = 2;
  std::vector<std::int32_t> got;
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s = {payload(me, 0), payload(me, 1)};
    std::vector<std::int32_t> r(me == kRoot ? 8 : 0, -1);
    if (me == kRoot) p.sim().advance(VDur::millis(20));
    p.gather(s.data(), 2, r.data(), 2, Datatype::kInt32, kRoot,
             p.comm_world());
    std::fill(s.begin(), s.end(), -999);  // reuse before the root collects
    if (me == kRoot) got = r;
  });
  std::vector<std::int32_t> want;
  for (int j = 0; j < 4; ++j) {
    want.push_back(payload(j, 0));
    want.push_back(payload(j, 1));
  }
  EXPECT_EQ(got, want);
}

TEST(RootedCopies, ReduceSurvivesNonRootsReusingTheirSendBuffer) {
  constexpr int kRoot = 1;
  std::vector<std::int32_t> got;
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s = {payload(me, 0), payload(me, 1)};
    std::vector<std::int32_t> r(2, -1);
    if (me == kRoot) p.sim().advance(VDur::millis(20));
    p.reduce(s.data(), r.data(), 2, Datatype::kInt32, ReduceOp::kSum, kRoot,
             p.comm_world());
    std::fill(s.begin(), s.end(), -999);
    if (me == kRoot) got = r;
  });
  std::int32_t want0 = 0, want1 = 0;
  for (int j = 0; j < 4; ++j) {
    want0 += payload(j, 0);
    want1 += payload(j, 1);
  }
  EXPECT_EQ(got, (std::vector<std::int32_t>{want0, want1}));
}

TEST(RootedCopies, ScatterSurvivesTheRootReusingItsSendBuffer) {
  // The root of a root-source collective leaves before late non-roots
  // arrive, so its send buffer must have been copied as well.
  constexpr int kRoot = 0;
  std::vector<std::int32_t> got(4, -1);
  run_mpi(clean_options(4), [&](Proc& p) {
    const int me = p.world_rank();
    std::vector<std::int32_t> s;
    if (me == kRoot) {
      s = {payload(0, 0), payload(1, 0), payload(2, 0), payload(3, 0)};
    }
    std::int32_t r = -1;
    if (me != kRoot) p.sim().advance(VDur::millis(20));
    p.scatter(s.data(), 1, &r, 1, Datatype::kInt32, kRoot, p.comm_world());
    std::fill(s.begin(), s.end(), -999);
    got[static_cast<std::size_t>(me)] = r;
  });
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(got[static_cast<std::size_t>(j)], payload(j, 0));
  }
}

}  // namespace
}  // namespace ats::mpi
