// Tests for the ATS framework plumbing: work functions, buffers,
// communication patterns, PropCtx binding.
#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace ats::core {
namespace {

using testutil::run_mpi_traced;
using testutil::run_prop;

TEST(Work, VirtualWorkAdvancesClockExactly) {
  VTime end;
  run_mpi_traced(1, [&](mpi::Proc& p) {
    PropCtx ctx = PropCtx::from(p);
    do_work(ctx, 0.125);
    end = p.sim().now();
  });
  EXPECT_EQ(end, VTime::zero() + VDur::seconds(0.125));
}

TEST(Work, NegativeAndNanAmountsClampToZero) {
  VTime end;
  run_mpi_traced(1, [&](mpi::Proc& p) {
    PropCtx ctx = PropCtx::from(p);
    do_work(ctx, -3.0);
    do_work(ctx, std::nan(""));
    end = p.sim().now();
  });
  EXPECT_EQ(end, VTime::zero());
}

TEST(Work, WorkRegionIsTraced) {
  auto tr = run_prop(1, [](PropCtx& ctx) { do_work(ctx, 0.01); });
  const trace::RegionId reg = tr.regions().find("do_work");
  ASSERT_NE(reg, trace::kNone);
  int enters = 0;
  for (const auto& e : tr.events_of(0)) {
    if (e.type == trace::EventType::kEnter && e.region == reg) ++enters;
  }
  EXPECT_EQ(enters, 1);
}

TEST(Work, ParDoMpiWorkFollowsDistribution) {
  std::vector<VTime> end(4);
  run_mpi_traced(4, [&](mpi::Proc& p) {
    PropCtx ctx = PropCtx::from(p);
    par_do_mpi_work(ctx, Distribution::linear(0.01, 0.04), 1.0,
                    p.comm_world());
    end[static_cast<std::size_t>(p.world_rank())] = p.sim().now();
  });
  EXPECT_EQ(end[0], VTime::zero() + VDur::seconds(0.01));
  EXPECT_EQ(end[3], VTime::zero() + VDur::seconds(0.04));
}

TEST(Work, BusyWorkCalibrationIsPositive) {
  const double ips = calibrate_busy_work(1 << 10, 0.01);
  EXPECT_GT(ips, 1000.0);  // any machine manages 1k iterations/s
}

TEST(Work, BusyWorkRunsAndAdvances) {
  WorkConfig cfg;
  cfg.mode = WorkMode::kBusy;
  cfg.busy_iters_per_sec = calibrate_busy_work(1 << 10, 0.01);
  cfg.array_elems = 1 << 10;
  VTime end;
  mpi::MpiRunOptions opt;
  opt.nprocs = 1;
  opt.cost = testutil::clean_mpi_cost();
  mpi::run_mpi(opt, [&](mpi::Proc& p) {
    PropCtx ctx = PropCtx::from(p);
    ctx.work = cfg;
    do_work(ctx, 0.001);
    end = p.sim().now();
  });
  EXPECT_EQ(end, VTime::zero() + VDur::seconds(0.001));
}

TEST(Work, BusyWithoutCalibrationThrows) {
  WorkConfig cfg;
  cfg.mode = WorkMode::kBusy;
  mpi::MpiRunOptions opt;
  opt.nprocs = 1;
  opt.cost = testutil::clean_mpi_cost();
  EXPECT_THROW(mpi::run_mpi(opt,
                            [&](mpi::Proc& p) {
                              PropCtx ctx = PropCtx::from(p);
                              ctx.work = cfg;
                              do_work(ctx, 0.001);
                            }),
               UsageError);
}

TEST(Work, BusyIterationChecksumIsDeterministic) {
  const double a = busy_work_iterations(10000, 1 << 10, 42);
  const double b = busy_work_iterations(10000, 1 << 10, 42);
  EXPECT_EQ(a, b);
}

TEST(Work, AllKernelsRunAndAreDeterministic) {
  for (BusyKernel k : {BusyKernel::kMixed, BusyKernel::kMemoryBound,
                       BusyKernel::kComputeBound}) {
    const double a = busy_work_iterations(5000, 1 << 10, 3, k);
    const double b = busy_work_iterations(5000, 1 << 10, 3, k);
    EXPECT_EQ(a, b) << to_string(k);
    EXPECT_TRUE(std::isfinite(a)) << to_string(k);
  }
}

TEST(Work, KernelCalibrationsArePositive) {
  for (BusyKernel k : {BusyKernel::kMixed, BusyKernel::kMemoryBound,
                       BusyKernel::kComputeBound}) {
    EXPECT_GT(calibrate_busy_work(1 << 10, 0.005, k), 100.0)
        << to_string(k);
  }
}

TEST(Work, KernelNamesAreDistinct) {
  EXPECT_STRNE(to_string(BusyKernel::kMixed),
               to_string(BusyKernel::kMemoryBound));
  EXPECT_STRNE(to_string(BusyKernel::kMemoryBound),
               to_string(BusyKernel::kComputeBound));
}

TEST(Work, SequentialPropertyFunctionsTraceTheirRegions) {
  auto tr = testutil::run_prop(1, [](PropCtx& ctx) {
    sequential_memory_bound(ctx, 0.01, 2);
    sequential_compute_bound(ctx, 0.01, 1);
  });
  EXPECT_NE(tr.regions().find("sequential_memory_bound"), trace::kNone);
  EXPECT_NE(tr.regions().find("sequential_compute_bound"), trace::kNone);
  // Virtual time: 2x10ms + 1x10ms of work inside the two regions.
  const auto result = analyze::analyze(tr);
  const trace::RegionId mem = tr.regions().find("sequential_memory_bound");
  analyze::NodeId node = -1;
  result.profile.preorder([&](analyze::NodeId n, int) {
    if (n != analyze::kRootNode &&
        result.profile.node(n).region == mem) {
      node = n;
    }
  });
  ASSERT_GE(node, 0);
  EXPECT_EQ(result.profile.inclusive_total(node), VDur::millis(20));
}

TEST(Buffer, MpiBufAllocatesTypedZeroed) {
  MpiBuf buf(mpi::Datatype::kDouble, 16);
  EXPECT_EQ(buf.count(), 16);
  EXPECT_EQ(buf.bytes(), 128);
  for (double v : buf.as<double>()) EXPECT_EQ(v, 0.0);
}

TEST(Buffer, FillIntWorksForAllTypes) {
  for (mpi::Datatype t :
       {mpi::Datatype::kByte, mpi::Datatype::kChar, mpi::Datatype::kInt32,
        mpi::Datatype::kInt64, mpi::Datatype::kFloat,
        mpi::Datatype::kDouble}) {
    MpiBuf buf(t, 4);
    buf.fill_int(3);
    if (t == mpi::Datatype::kInt32) {
      for (auto v : buf.as<std::int32_t>()) EXPECT_EQ(v, 3);
    }
    if (t == mpi::Datatype::kDouble) {
      for (auto v : buf.as<double>()) EXPECT_EQ(v, 3.0);
    }
  }
}

TEST(Buffer, AsRejectsWrongElementSize) {
  MpiBuf buf(mpi::Datatype::kInt32, 4);
  EXPECT_THROW(buf.as<double>(), UsageError);
  EXPECT_NO_THROW(buf.as<float>());  // same size — allowed
}

TEST(Buffer, NegativeCountThrows) {
  EXPECT_THROW(MpiBuf(mpi::Datatype::kInt32, -1), UsageError);
}

TEST(Buffer, VBufCountsFollowDistribution) {
  MpiVBuf v(mpi::Datatype::kInt32, Distribution::linear(10, 40), 1.0, 4, 2,
            2);
  ASSERT_EQ(v.counts().size(), 4u);
  EXPECT_EQ(v.counts()[0], 10);
  EXPECT_EQ(v.counts()[3], 40);
  EXPECT_EQ(v.displs()[0], 0);
  EXPECT_EQ(v.displs()[1], 10);
  EXPECT_EQ(v.total(), 10 + 20 + 30 + 40);
  EXPECT_EQ(v.my_count(), 30);
  EXPECT_EQ(v.my_bytes(), 30 * 4);
}

TEST(Buffer, VBufRootStorageLivesOnTheRootOnly) {
  // MPI ignores the root buffer argument on non-roots, so only the root
  // pays for the concatenation.
  for (int me = 0; me < 4; ++me) {
    MpiVBuf v(mpi::Datatype::kInt32, Distribution::linear(10, 40), 1.0, 4,
              me, 1);
    if (me == 1) {
      EXPECT_NE(v.root_data(), nullptr);
    } else {
      EXPECT_EQ(v.root_data(), nullptr);
    }
    EXPECT_EQ(v.total(), 100);
    EXPECT_EQ(v.my_bytes(), v.counts()[static_cast<std::size_t>(me)] * 4);
  }
}

TEST(Buffer, VBufNegativeValuesClampToZero) {
  MpiVBuf v(mpi::Datatype::kInt32, Distribution::linear(-10, 10), 1.0, 3, 0,
            0);
  EXPECT_EQ(v.counts()[0], 0);
  EXPECT_EQ(v.counts()[2], 10);
}

TEST(Pattern, SendrecvUpMovesDataEvenToOdd) {
  std::vector<int> got(4, -1);
  run_prop(4, [&](PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    MpiBuf buf(mpi::Datatype::kInt32, 4);
    if (p.world_rank() % 2 == 0) buf.fill_int(p.world_rank() + 50);
    mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, {}, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = buf.as<std::int32_t>()[0];
  });
  EXPECT_EQ(got[1], 50);  // from rank 0
  EXPECT_EQ(got[3], 52);  // from rank 2
}

TEST(Pattern, SendrecvDownReversesDirection) {
  std::vector<int> got(4, -1);
  run_prop(4, [&](PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    MpiBuf buf(mpi::Datatype::kInt32, 1);
    if (p.world_rank() % 2 == 1) buf.fill_int(p.world_rank() + 70);
    mpi_commpattern_sendrecv(ctx, buf, Direction::kDown, {}, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = buf.as<std::int32_t>()[0];
  });
  EXPECT_EQ(got[0], 71);
  EXPECT_EQ(got[2], 73);
}

TEST(Pattern, SendrecvOddSizeLastRankSitsOut) {
  // Must not deadlock with 5 ranks; rank 4 skips.
  std::vector<int> got(5, -1);
  run_prop(5, [&](PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    MpiBuf buf(mpi::Datatype::kInt32, 1);
    buf.fill_int(p.world_rank());
    mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, {}, p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = buf.as<std::int32_t>()[0];
  });
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[3], 2);
  EXPECT_EQ(got[4], 4);  // untouched
}

TEST(Pattern, SendrecvSingleRankIsNoop) {
  run_prop(1, [&](PropCtx& ctx) {
    MpiBuf buf(mpi::Datatype::kInt32, 1);
    mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, {},
                             ctx.mpi_proc().comm_world());
  });
}

TEST(Pattern, SendrecvIsendIrecvVariants) {
  for (bool isend : {false, true}) {
    for (bool irecv : {false, true}) {
      std::vector<int> got(2, -1);
      run_prop(2, [&](PropCtx& ctx) {
        mpi::Proc& p = ctx.mpi_proc();
        MpiBuf buf(mpi::Datatype::kInt32, 1);
        if (p.world_rank() == 0) buf.fill_int(5);
        PatternOptions opt;
        opt.use_isend = isend;
        opt.use_irecv = irecv;
        mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, opt,
                                 p.comm_world());
        got[static_cast<std::size_t>(p.world_rank())] =
            buf.as<std::int32_t>()[0];
      });
      EXPECT_EQ(got[1], 5) << "isend=" << isend << " irecv=" << irecv;
    }
  }
}

TEST(Pattern, ShiftRotatesValues) {
  std::vector<int> got(4, -1);
  run_prop(4, [&](PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    MpiBuf sbuf(mpi::Datatype::kInt32, 1), rbuf(mpi::Datatype::kInt32, 1);
    sbuf.fill_int(p.world_rank());
    mpi_commpattern_shift(ctx, sbuf, rbuf, Direction::kUp, {},
                          p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = rbuf.as<std::int32_t>()[0];
  });
  EXPECT_EQ(got, (std::vector<int>{3, 0, 1, 2}));
}

TEST(Pattern, ShiftDownRotatesTheOtherWay) {
  std::vector<int> got(4, -1);
  run_prop(4, [&](PropCtx& ctx) {
    mpi::Proc& p = ctx.mpi_proc();
    MpiBuf sbuf(mpi::Datatype::kInt32, 1), rbuf(mpi::Datatype::kInt32, 1);
    sbuf.fill_int(p.world_rank());
    mpi_commpattern_shift(ctx, sbuf, rbuf, Direction::kDown, {},
                          p.comm_world());
    got[static_cast<std::size_t>(p.world_rank())] = rbuf.as<std::int32_t>()[0];
  });
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 0}));
}

TEST(Pattern, PairwiseReachesEveryPeer) {
  // After the pairwise pattern each rank has exchanged with all others;
  // we only verify it terminates and the final receive landed.
  for (int np : {2, 3, 4, 5, 8}) {
    run_prop(np, [&](PropCtx& ctx) {
      mpi::Proc& p = ctx.mpi_proc();
      MpiBuf sbuf(mpi::Datatype::kInt32, 1), rbuf(mpi::Datatype::kInt32, 1);
      sbuf.fill_int(p.world_rank());
      mpi_commpattern_pairwise(ctx, sbuf, rbuf, p.comm_world());
    });
  }
}

TEST(PropCtx, UnboundAccessThrows) {
  PropCtx ctx;
  EXPECT_THROW(ctx.mpi_proc(), UsageError);
  EXPECT_THROW(ctx.omp_rt(), UsageError);
  EXPECT_THROW(do_work(ctx, 0.1), UsageError);
}

TEST(PropCtx, SetBaseCommChangesDefaults) {
  run_prop(1, [&](PropCtx& ctx) {
    ctx.set_base_comm(mpi::Datatype::kDouble, 99);
    EXPECT_EQ(ctx.defaults.base_type, mpi::Datatype::kDouble);
    EXPECT_EQ(ctx.defaults.base_cnt, 99);
  });
}

}  // namespace
}  // namespace ats::core
