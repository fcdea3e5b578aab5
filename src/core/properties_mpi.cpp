// MPI property functions: point-to-point and collective wait states.
#include "core/properties.hpp"

namespace ats::core {

PropRegion::PropRegion(PropCtx& ctx, simt::Context& sim, const char* name)
    : trace_(ctx.trace), sim_(&sim) {
  reg_ = trace_->regions().intern(name, trace::RegionKind::kUser);
  trace_->enter(sim_->id(), sim_->now(), reg_);
}

PropRegion::~PropRegion() {
  trace_->exit(sim_->id(), sim_->now(), reg_);
}

// ------------------------------------------------------------ point-to-point

void late_sender(PropCtx& ctx, double basework, double extrawork, int r,
                 mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_sender");
  // Senders (even ranks under DIR_UP) get the extra work, so every receive
  // blocks for `extrawork` seconds (paper's reference implementation).
  const Distribution dd =
      Distribution::cyclic2(basework + extrawork, basework);
  MpiBuf buf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, {}, comm);
  }
}

void late_receiver(PropCtx& ctx, double basework, double extrawork, int r,
                   mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_receiver");
  // Receivers (odd ranks under DIR_UP) get the extra work; the synchronous
  // send forces the rendezvous protocol, so the punctual senders block.
  const Distribution dd =
      Distribution::cyclic2(basework, basework + extrawork);
  MpiBuf buf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  PatternOptions opt;
  opt.use_ssend = true;
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    mpi_commpattern_sendrecv(ctx, buf, Direction::kUp, opt, comm);
  }
}

void late_sender_wrong_order(PropCtx& ctx, double basework, double extrawork,
                             int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_sender_wrong_order");
  mpi::Proc& p = ctx.mpi_proc();
  const int me = p.rank(comm);
  const int sz = comm.size();
  MpiBuf buf_a(ctx.defaults.base_type, ctx.defaults.base_cnt);
  MpiBuf buf_b(ctx.defaults.base_type, ctx.defaults.base_cnt);
  const Distribution dd = Distribution::same(basework);
  const int tag_a = 1, tag_b = 2;
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    if (sz % 2 == 1 && me == sz - 1) continue;
    if (sz < 2) continue;
    if (me % 2 == 0) {
      // Send B, compute, then send A.  The receiver insists on A first, so
      // it waits `extrawork` seconds while B is already available — the
      // "messages in wrong order" flavour of late sender.
      p.send(buf_b.data(), buf_b.count(), buf_b.type(), me + 1, tag_b, comm);
      do_work(ctx, extrawork);
      p.send(buf_a.data(), buf_a.count(), buf_a.type(), me + 1, tag_a, comm);
    } else {
      p.recv(buf_a.data(), buf_a.count(), buf_a.type(), me - 1, tag_a, comm);
      p.recv(buf_b.data(), buf_b.count(), buf_b.type(), me - 1, tag_b, comm);
    }
  }
}

// --------------------------------------------------------- N×N collectives

namespace {

/// Shared body of the "imbalance at <NxN collective>" family.
template <typename CollCall>
void imbalance_at_nxn(PropCtx& ctx, const Distribution& d, int r,
                      mpi::Comm& comm, const CollCall& coll) {
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, d, 1.0, comm);
    coll();
  }
}

}  // namespace

void imbalance_at_mpi_barrier(PropCtx& ctx, const Distribution& d, int r,
                              mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_barrier");
  mpi::Proc& p = ctx.mpi_proc();
  imbalance_at_nxn(ctx, d, r, comm, [&] { p.barrier(comm); });
}

void imbalance_at_mpi_alltoall(PropCtx& ctx, const Distribution& d, int r,
                               mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_alltoall");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  MpiBuf sbuf(ctx.defaults.base_type, ctx.defaults.base_cnt * sz);
  MpiBuf rbuf(ctx.defaults.base_type, ctx.defaults.base_cnt * sz);
  imbalance_at_nxn(ctx, d, r, comm, [&] {
    p.alltoall(sbuf.data(), ctx.defaults.base_cnt, rbuf.data(),
               ctx.defaults.base_cnt, ctx.defaults.base_type, comm);
  });
}

void imbalance_at_mpi_allreduce(PropCtx& ctx, const Distribution& d, int r,
                                mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_allreduce");
  mpi::Proc& p = ctx.mpi_proc();
  MpiBuf sbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  MpiBuf rbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  imbalance_at_nxn(ctx, d, r, comm, [&] {
    p.allreduce(sbuf.data(), rbuf.data(), ctx.defaults.base_cnt,
                mpi::Datatype::kDouble, mpi::ReduceOp::kSum, comm);
  });
}

void imbalance_at_mpi_allgather(PropCtx& ctx, const Distribution& d, int r,
                                mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_allgather");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  MpiBuf sbuf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  MpiBuf rbuf(ctx.defaults.base_type, ctx.defaults.base_cnt * sz);
  imbalance_at_nxn(ctx, d, r, comm, [&] {
    p.allgather(sbuf.data(), ctx.defaults.base_cnt, rbuf.data(),
                ctx.defaults.base_cnt, ctx.defaults.base_type, comm);
  });
}

void imbalance_at_mpi_scan(PropCtx& ctx, const Distribution& d, int r,
                           mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_scan");
  mpi::Proc& p = ctx.mpi_proc();
  MpiBuf sbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  MpiBuf rbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  imbalance_at_nxn(ctx, d, r, comm, [&] {
    p.scan(sbuf.data(), rbuf.data(), ctx.defaults.base_cnt,
           mpi::Datatype::kDouble, mpi::ReduceOp::kSum, comm);
  });
}

void imbalance_at_mpi_reduce_scatter(PropCtx& ctx, const Distribution& d,
                                     int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "imbalance_at_mpi_reduce_scatter");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  MpiBuf sbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt * sz);
  MpiBuf rbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  imbalance_at_nxn(ctx, d, r, comm, [&] {
    p.reduce_scatter_block(sbuf.data(), rbuf.data(), ctx.defaults.base_cnt,
                           mpi::Datatype::kDouble, mpi::ReduceOp::kSum,
                           comm);
  });
}

// -------------------------------------------------- root-source collectives

namespace {

/// Everyone does `basework`; the root additionally does `rootextrawork`,
/// then the root-sourced collective runs: non-roots wait for the root.
Distribution late_root_distribution(double basework, double rootextrawork,
                                    int root) {
  return Distribution::peak(basework, basework + rootextrawork, root);
}

}  // namespace

void late_broadcast(PropCtx& ctx, double basework, double rootextrawork,
                    int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_broadcast");
  mpi::Proc& p = ctx.mpi_proc();
  const Distribution dd =
      late_root_distribution(basework, rootextrawork, root);
  MpiBuf buf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.bcast(buf.data(), buf.count(), buf.type(), root, comm);
  }
}

void late_scatter(PropCtx& ctx, double basework, double rootextrawork,
                  int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_scatter");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  const Distribution dd =
      late_root_distribution(basework, rootextrawork, root);
  // MPI reads the send buffer on the root only.
  MpiBuf sbuf(ctx.defaults.base_type,
              p.rank(comm) == root ? ctx.defaults.base_cnt * sz : 0);
  MpiBuf rbuf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.scatter(sbuf.data(), ctx.defaults.base_cnt, rbuf.data(),
              ctx.defaults.base_cnt, ctx.defaults.base_type, root, comm);
  }
}

void late_scatterv(PropCtx& ctx, double basework, double rootextrawork,
                   int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "late_scatterv");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  const int me = p.rank(comm);
  const Distribution dd =
      late_root_distribution(basework, rootextrawork, root);
  // Irregular data amounts: linearly growing counts over the ranks.
  MpiVBuf vbuf(ctx.defaults.base_type,
               Distribution::linear(ctx.defaults.base_cnt / 2.0,
                                    ctx.defaults.base_cnt * 1.5),
               1.0, sz, me, root);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.scatterv(vbuf.root_data(), vbuf.counts(), vbuf.displs(),
               vbuf.my_data(), vbuf.my_count(), vbuf.type(), root, comm);
  }
}

// ---------------------------------------------------- root-sink collectives

void early_reduce(PropCtx& ctx, double rootwork, double baseextrawork,
                  int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "early_reduce");
  mpi::Proc& p = ctx.mpi_proc();
  // Everyone but the root computes longer, so the root sits in MPI_Reduce.
  const Distribution dd =
      Distribution::peak(rootwork + baseextrawork, rootwork, root);
  MpiBuf sbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  MpiBuf rbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.reduce(sbuf.data(), rbuf.data(), ctx.defaults.base_cnt,
             mpi::Datatype::kDouble, mpi::ReduceOp::kSum, root, comm);
  }
}

void early_gather(PropCtx& ctx, double rootwork, double baseextrawork,
                  int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "early_gather");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  const Distribution dd =
      Distribution::peak(rootwork + baseextrawork, rootwork, root);
  MpiBuf sbuf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  // MPI writes the receive buffer on the root only.
  MpiBuf rbuf(ctx.defaults.base_type,
              p.rank(comm) == root ? ctx.defaults.base_cnt * sz : 0);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.gather(sbuf.data(), ctx.defaults.base_cnt, rbuf.data(),
             ctx.defaults.base_cnt, ctx.defaults.base_type, root, comm);
  }
}

void early_gatherv(PropCtx& ctx, double rootwork, double baseextrawork,
                   int root, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "early_gatherv");
  mpi::Proc& p = ctx.mpi_proc();
  const int sz = comm.size();
  const int me = p.rank(comm);
  const Distribution dd =
      Distribution::peak(rootwork + baseextrawork, rootwork, root);
  MpiVBuf vbuf(ctx.defaults.base_type,
               Distribution::linear(ctx.defaults.base_cnt / 2.0,
                                    ctx.defaults.base_cnt * 1.5),
               1.0, sz, me, root);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.gatherv(vbuf.my_data(), vbuf.my_count(), vbuf.root_data(),
              vbuf.counts(), vbuf.displs(), vbuf.type(), root, comm);
  }
}

// ---------------------------------------------------- sequential functions

namespace {

void sequential_kernel_phase(PropCtx& ctx, const char* name,
                             BusyKernel kernel, double work, int r) {
  PropRegion region(ctx, *ctx.sim, name);
  const BusyKernel saved = ctx.work.kernel;
  ctx.work.kernel = kernel;
  for (int i = 0; i < r; ++i) do_work(ctx, work);
  ctx.work.kernel = saved;
}

}  // namespace

void sequential_memory_bound(PropCtx& ctx, double work, int r) {
  sequential_kernel_phase(ctx, "sequential_memory_bound",
                          BusyKernel::kMemoryBound, work, r);
}

void sequential_compute_bound(PropCtx& ctx, double work, int r) {
  sequential_kernel_phase(ctx, "sequential_compute_bound",
                          BusyKernel::kComputeBound, work, r);
}

// ------------------------------------------------- defect program family

void defect_collective_op_mismatch(PropCtx& ctx, double work,
                                   mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "defect_collective_op_mismatch");
  mpi::Proc& p = ctx.mpi_proc();
  par_do_mpi_work(ctx, Distribution::same(work), 1.0, comm);
  if (p.rank(comm) % 2 == 0) {
    int v = 1, out = 0;
    p.allreduce(&v, &out, 1, mpi::Datatype::kInt32, mpi::ReduceOp::kSum,
                comm);
  } else {
    p.barrier(comm);
  }
}

void defect_conditional_collective(PropCtx& ctx, double work,
                                   mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "defect_conditional_collective");
  mpi::Proc& p = ctx.mpi_proc();
  par_do_mpi_work(ctx, Distribution::same(work), 1.0, comm);
  // Odd ranks never make the call; their next collective is the runtime's
  // own finalize barrier, which pairs with this one at the same call index
  // and lets the run limp on until the ranks drift apart and deadlock.
  if (p.rank(comm) % 2 == 0) p.barrier(comm);
}

void defect_collective_root_mismatch(PropCtx& ctx, double work,
                                     mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "defect_collective_root_mismatch");
  mpi::Proc& p = ctx.mpi_proc();
  par_do_mpi_work(ctx, Distribution::same(work), 1.0, comm);
  int buf = p.rank(comm);
  p.bcast(&buf, 1, mpi::Datatype::kInt32, p.rank(comm) % 2, comm);
}

void defect_reduce_op_mismatch(PropCtx& ctx, double work, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "defect_reduce_op_mismatch");
  mpi::Proc& p = ctx.mpi_proc();
  par_do_mpi_work(ctx, Distribution::same(work), 1.0, comm);
  int v = p.rank(comm) + 1, out = 0;
  p.allreduce(&v, &out, 1, mpi::Datatype::kInt32,
              p.rank(comm) % 2 == 0 ? mpi::ReduceOp::kMin
                                    : mpi::ReduceOp::kMax,
              comm);
}

void defect_split_comm_color(PropCtx& ctx, double work, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "defect_split_comm_color");
  mpi::Proc& p = ctx.mpi_proc();
  par_do_mpi_work(ctx, Distribution::same(work), 1.0, comm);
  const int me = p.rank(comm);
  mpi::Comm* sub = p.split(comm, me % 2, me);
  // The split itself is consistent; the bug is that only the lower half of
  // each colour group shows up at the sub-communicator's barrier.
  if (sub != nullptr && p.rank(*sub) < sub->size() / 2) {
    p.barrier(*sub);
  }
}

// ------------------------------------------------------ negative functions

void balanced_mpi_stencil(PropCtx& ctx, double work, int r,
                          mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "balanced_mpi_stencil");
  const Distribution dd = Distribution::same(work);
  MpiBuf sbuf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  MpiBuf rbuf(ctx.defaults.base_type, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    mpi_commpattern_shift(ctx, sbuf, rbuf, Direction::kUp, {}, comm);
    par_do_mpi_work(ctx, dd, 1.0, comm);
    mpi_commpattern_shift(ctx, sbuf, rbuf, Direction::kDown, {}, comm);
  }
}

void balanced_collectives(PropCtx& ctx, double work, int r, mpi::Comm& comm) {
  PropRegion region(ctx, *ctx.sim, "balanced_collectives");
  mpi::Proc& p = ctx.mpi_proc();
  const Distribution dd = Distribution::same(work);
  MpiBuf sbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  MpiBuf rbuf(mpi::Datatype::kDouble, ctx.defaults.base_cnt);
  for (int i = 0; i < r; ++i) {
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.barrier(comm);
    par_do_mpi_work(ctx, dd, 1.0, comm);
    p.allreduce(sbuf.data(), rbuf.data(), ctx.defaults.base_cnt,
                mpi::Datatype::kDouble, mpi::ReduceOp::kSum, comm);
  }
}

}  // namespace ats::core
