// Collective operations of the simulated MPI.
//
// Each collective instance is identified by (communicator, per-rank call
// sequence number) — MPI requires every member to issue the communicator's
// collectives in the same order, which the runtime verifies.  Three timing
// shapes cover all operations:
//
//  * all-to-all (barrier, allreduce, alltoall, allgather, scan, split, dup):
//    everybody leaves at max(enter) + cost — early ranks wait for the last
//    (the analyzer's "Wait at Barrier"/"Wait at NxN" patterns);
//  * root-source (bcast, scatter, scatterv): non-roots leave at
//    max(own enter, root enter) + cost — early non-roots wait for a late
//    root ("Late Broadcast");
//  * root-sink (reduce, gather, gatherv): the root leaves at
//    max(all enters) + cost, non-roots at own enter + cost — an early root
//    waits for the last contributor ("Early Reduce"/"Early Gather").
//
// All-to-all ops read every rank's send buffer in place (nobody leaves
// before the outputs exist); rooted ops stage copies, because one side may
// leave before the other arrives (see detail::CollInstance).
#include <algorithm>
#include <cstdint>
#include <cstring>

#include "mpisim/world.hpp"

namespace ats::mpi {

namespace {

// kCollBegin records carry ReduceOp values as raw int32 (Event::tag), which
// trace::reduce_op_name() renders without a trace -> mpisim dependency.  Pin
// the numeric values its name table assumes: {sum, prod, min, max, land, lor}.
static_assert(static_cast<int>(ReduceOp::kSum) == 0 &&
                  static_cast<int>(ReduceOp::kProd) == 1 &&
                  static_cast<int>(ReduceOp::kMin) == 2 &&
                  static_cast<int>(ReduceOp::kMax) == 3 &&
                  static_cast<int>(ReduceOp::kLand) == 4 &&
                  static_cast<int>(ReduceOp::kLor) == 5,
              "ReduceOp values must match trace::reduce_op_name's table");

std::int64_t bytes_of(int count, Datatype type) {
  require(count >= 0, "collective: negative element count");
  return static_cast<std::int64_t>(count) *
         static_cast<std::int64_t>(datatype_size(type));
}

void check_capacity(std::int64_t need, std::int64_t have, const char* what) {
  if (need > have) {
    throw MpiError(std::string(what) + ": receive buffer too small (" +
                   std::to_string(need) + " > " + std::to_string(have) + ")");
  }
}

/// All-wait collectives read send buffers in place while writing results
/// straight into receive buffers, so one rank's two ranges must not
/// overlap (MPI forbids the aliasing as well).
void check_disjoint(const void* sdata, std::int64_t sbytes, const void* rdata,
                    std::int64_t rbytes, const char* what) {
  const auto s = reinterpret_cast<std::uintptr_t>(sdata);
  const auto r = reinterpret_cast<std::uintptr_t>(rdata);
  if (sbytes > 0 && rbytes > 0 &&
      s < r + static_cast<std::uintptr_t>(rbytes) &&
      r < s + static_cast<std::uintptr_t>(sbytes)) {
    throw MpiError(std::string(what) +
                   ": send and receive buffers overlap");
  }
}

}  // namespace

detail::CollInstance& Proc::coll_enter(Comm& comm, trace::CollOp op,
                                       int root, Datatype type,
                                       std::int64_t bytes,
                                       std::int64_t& seq_out,
                                       trace::RegionId region,
                                       std::int32_t rop) {
  const int me = rank(comm);
  const int p = comm.size();
  if (root >= 0) comm.member(root);  // range check

  ctx_.yield();  // act in global virtual-time order
  const std::int64_t seq = comm.coll_count_[static_cast<std::size_t>(me)]++;
  seq_out = seq;
  // Record the region enter and the per-participant call record *before*
  // the consistency checks below: when a mismatch aborts the run, the trace
  // must still show what every rank believed it was calling, so the replay
  // checker can cite the offending call sites.  region == kNone suppresses
  // both (the internal init/finalize barriers).
  if (region != trace::kNone) {
    const std::int32_t root_loc =
        root >= 0 ? static_cast<std::int32_t>(comm.member(root)) : trace::kNone;
    world_->trace()->enter(ctx_.id(), ctx_.now(), region);
    world_->trace()->coll_begin(ctx_.id(), ctx_.now(), comm.trace_id(), seq,
                                op, root_loc, rop, region);
  }
  auto [it, inserted] = comm.coll_.try_emplace(seq);
  detail::CollInstance& inst = it->second;
  if (inserted) {
    inst.op = op;
    inst.root = root;
    inst.type = type;
    inst.bytes_per_rank = bytes;
    inst.enter.assign(static_cast<std::size_t>(p), VTime::max());
    inst.present.assign(static_cast<std::size_t>(p), false);
    inst.exit_at.assign(static_cast<std::size_t>(p), VTime::max());
    inst.in_ptr.assign(static_cast<std::size_t>(p), nullptr);
    inst.out_ptr.assign(static_cast<std::size_t>(p), nullptr);
    inst.out_capacity.assign(static_cast<std::size_t>(p), 0);
    inst.out_counts.assign(static_cast<std::size_t>(p), 0);
    inst.out_displs.assign(static_cast<std::size_t>(p), 0);
    inst.colors.assign(static_cast<std::size_t>(p), 0);
    inst.keys.assign(static_cast<std::size_t>(p), 0);
    inst.split_result.assign(static_cast<std::size_t>(p), nullptr);
  } else {
    if (inst.op != op) {
      throw MpiError("collective mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": rank " + std::to_string(me) +
                     " called " + trace::to_string(op) + " but instance is " +
                     trace::to_string(inst.op));
    }
    if (inst.root != root) {
      throw MpiError("collective root mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": rank " + std::to_string(me) +
                     " used root " + std::to_string(root) + ", others used " +
                     std::to_string(inst.root));
    }
    if (inst.type != type) {
      throw MpiError("collective datatype mismatch on '" + comm.name() +
                     "' #" + std::to_string(seq));
    }
    if (inst.bytes_per_rank >= 0 && bytes >= 0 &&
        inst.bytes_per_rank != bytes) {
      throw MpiError("collective count mismatch on '" + comm.name() + "' #" +
                     std::to_string(seq) + ": " + std::to_string(bytes) +
                     " vs " + std::to_string(inst.bytes_per_rank) +
                     " bytes per rank");
    }
  }
  const std::size_t ume = static_cast<std::size_t>(me);
  if (inst.present[ume]) {
    throw MpiError("rank " + std::to_string(me) +
                   " entered collective #" + std::to_string(seq) + " twice");
  }
  inst.present[ume] = true;
  inst.enter[ume] = ctx_.now();
  inst.max_enter = later(inst.max_enter, ctx_.now());
  ++inst.arrived;
  if (root >= 0 && me == root) {
    inst.root_arrived = true;
    inst.root_enter = ctx_.now();
  }
  return inst;
}

void Proc::coll_all_wait(
    Comm& comm, detail::CollInstance& inst, std::int64_t seq,
    const std::function<void(detail::CollInstance&)>& compute_outputs) {
  (void)seq;
  const int me = rank(comm);
  const int p = comm.size();
  if (inst.arrived < p) {
    ctx_.block("MPI collective (waiting for all ranks)");
    return;  // the last arriver computed outputs and set our clock
  }
  // Last arriver: compute everyone's result and release the others.
  inst.complete = true;
  compute_outputs(inst);
  const VTime end =
      inst.max_enter + world_->cost().collective_time(p, inst.bytes_per_rank);
  for (int r = 0; r < p; ++r) {
    inst.exit_at[static_cast<std::size_t>(r)] = end;
  }
  for (int r = 0; r < p; ++r) {
    if (r != me) ctx_.engine().wake(comm.member(r), end);
  }
  ctx_.advance_to(end);
}

void Proc::coll_finish(Comm& comm, std::int64_t seq, trace::CollOp op,
                       VTime enter_t, std::int64_t bytes_in,
                       std::int64_t bytes_out, trace::RegionId region) {
  const int me = rank(comm);
  auto it = comm.coll_.find(seq);
  require(it != comm.coll_.end(), "coll_finish: instance vanished");
  detail::CollInstance& inst = it->second;
  const std::int32_t root_loc =
      inst.root >= 0 ? comm.member(inst.root) : trace::kNone;
  world_->trace()->coll_end(ctx_.id(), ctx_.now(), enter_t, comm.trace_id(),
                            seq, op, root_loc, bytes_in, bytes_out);
  world_->trace()->exit(ctx_.id(), ctx_.now(), region);
  ++inst.exited;
  (void)me;
  if (inst.exited == comm.size()) comm.coll_.erase(it);
}

// ------------------------------------------------------------ operations

void Proc::barrier(Comm& comm) {
  const trace::RegionId reg =
      world_->region("MPI_Barrier", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, trace::CollOp::kBarrier, -1,
                                          Datatype::kByte, 0, seq, reg);
  const VTime enter_t = ctx_.now();
  coll_all_wait(comm, inst, seq, [](detail::CollInstance&) {});
  coll_finish(comm, seq, trace::CollOp::kBarrier, enter_t, 0, 0, reg);
}

void Proc::bcast(void* data, int count, Datatype type, int root, Comm& comm) {
  const int me = rank(comm);
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Bcast", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst =
      coll_enter(comm, trace::CollOp::kBcast, root, type, bytes, seq, reg);
  const VTime enter_t = ctx_.now();
  const VDur cost =
      world_->cost().collective_time(comm.size(), bytes);

  if (me == root) {
    inst.root_data.assign(static_cast<const std::byte*>(data),
                          static_cast<const std::byte*>(data) + bytes);
    // Deliver to every already-waiting non-root and release it.
    for (int r = 0; r < comm.size(); ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      if (r == me || !inst.present[ur]) continue;
      std::memcpy(inst.out_ptr[ur], inst.root_data.data(),
                  static_cast<std::size_t>(bytes));
      const VTime end = inst.root_enter + cost;
      inst.exit_at[ur] = end;
      ctx_.engine().wake(comm.member(r), end);
    }
    ctx_.advance_to(inst.root_enter + cost);
  } else {
    inst.out_ptr[static_cast<std::size_t>(me)] = data;
    inst.out_capacity[static_cast<std::size_t>(me)] = bytes;
    if (inst.root_arrived) {
      std::memcpy(data, inst.root_data.data(),
                  static_cast<std::size_t>(bytes));
      ctx_.advance_to(later(ctx_.now(), inst.root_enter) + cost);
    } else {
      ctx_.block("MPI_Bcast (waiting for root)");
    }
  }
  coll_finish(comm, seq, trace::CollOp::kBcast, enter_t,
              me == root ? bytes : 0, me == root ? 0 : bytes, reg);
}

void Proc::scatter(const void* sdata, int scount, void* rdata, int rcount,
                   Datatype type, int root, Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts;
  std::vector<int> displs;
  if (rank(comm) == root) {
    counts.assign(static_cast<std::size_t>(p), scount);
    displs.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = r * scount;
    }
  }
  scatterv_impl(trace::CollOp::kScatter, sdata, counts, displs, rdata,
                rcount, type, root, comm);
}

void Proc::scatterv(const void* sdata, std::span<const int> scounts,
                    std::span<const int> displs, void* rdata, int rcount,
                    Datatype type, int root, Comm& comm) {
  scatterv_impl(trace::CollOp::kScatterv, sdata, scounts, displs, rdata,
                rcount, type, root, comm);
}

void Proc::scatterv_impl(trace::CollOp op, const void* sdata,
                         std::span<const int> scounts,
                         std::span<const int> displs, void* rdata, int rcount,
                         Datatype type, int root, Comm& comm) {
  const int me = rank(comm);
  const int p = comm.size();
  const std::size_t esz = datatype_size(type);
  const std::int64_t rcap = bytes_of(rcount, type);
  const trace::RegionId reg = world_->region(
      op == trace::CollOp::kScatter ? "MPI_Scatter" : "MPI_Scatterv",
      trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, op, root, type, -1, seq, reg);
  const VTime enter_t = ctx_.now();

  if (me == root) {
    require(op != trace::CollOp::kScatter || !scounts.empty(),
            "scatter: root must supply counts");
    require(static_cast<int>(scounts.size()) == p,
            "scatterv: scounts must have one entry per rank");
    require(static_cast<int>(displs.size()) == p,
            "scatterv: displs must have one entry per rank");
    std::int64_t total = 0;
    for (int r = 0; r < p; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      inst.out_counts[ur] = scounts[ur];
      inst.out_displs[ur] = displs[ur];
      total = std::max(total, static_cast<std::int64_t>(displs[ur]) +
                                  scounts[ur]);
    }
    inst.root_data.assign(
        static_cast<const std::byte*>(sdata),
        static_cast<const std::byte*>(sdata) +
            static_cast<std::int64_t>(esz) * total);
    const VDur cost = world_->cost().collective_time(
        p, static_cast<std::int64_t>(esz) *
               *std::max_element(scounts.begin(), scounts.end()));
    for (int r = 0; r < p; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      if (r == me || !inst.present[ur]) continue;
      const std::int64_t need =
          static_cast<std::int64_t>(esz) * inst.out_counts[ur];
      check_capacity(need, inst.out_capacity[ur], "scatterv");
      std::memcpy(inst.out_ptr[ur],
                  inst.root_data.data() +
                      static_cast<std::int64_t>(esz) * inst.out_displs[ur],
                  static_cast<std::size_t>(need));
      const VTime end = inst.root_enter + cost;
      inst.exit_at[ur] = end;
      ctx_.engine().wake(comm.member(r), end);
    }
    // Root's own slice.
    const std::int64_t own =
        static_cast<std::int64_t>(esz) *
        inst.out_counts[static_cast<std::size_t>(me)];
    check_capacity(own, rcap, "scatterv(root)");
    std::memcpy(rdata,
                inst.root_data.data() +
                    static_cast<std::int64_t>(esz) *
                        inst.out_displs[static_cast<std::size_t>(me)],
                static_cast<std::size_t>(own));
    ctx_.advance_to(inst.root_enter + cost);
  } else {
    const std::size_t ume = static_cast<std::size_t>(me);
    inst.out_ptr[ume] = rdata;
    inst.out_capacity[ume] = rcap;
    if (inst.root_arrived) {
      const std::int64_t need =
          static_cast<std::int64_t>(esz) * inst.out_counts[ume];
      check_capacity(need, rcap, "scatterv");
      std::memcpy(rdata,
                  inst.root_data.data() +
                      static_cast<std::int64_t>(esz) * inst.out_displs[ume],
                  static_cast<std::size_t>(need));
      const VDur cost = world_->cost().collective_time(
          p, static_cast<std::int64_t>(esz) * inst.out_counts[ume]);
      ctx_.advance_to(later(ctx_.now(), inst.root_enter) + cost);
    } else {
      ctx_.block("MPI_Scatterv (waiting for root)");
    }
  }
  coll_finish(comm, seq, op, enter_t, me == root ? rcap * p : 0,
              me == root ? 0 : rcap, reg);
}

void Proc::gather(const void* sdata, int scount, void* rdata, int rcount,
                  Datatype type, int root, Comm& comm) {
  const int p = comm.size();
  std::vector<int> counts;
  std::vector<int> displs;
  if (rank(comm) == root) {
    counts.assign(static_cast<std::size_t>(p), rcount);
    displs.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      displs[static_cast<std::size_t>(r)] = r * rcount;
    }
  }
  gatherv_impl(trace::CollOp::kGather, sdata, scount, rdata, counts, displs,
               type, root, comm);
}

void Proc::gatherv(const void* sdata, int scount, void* rdata,
                   std::span<const int> rcounts, std::span<const int> displs,
                   Datatype type, int root, Comm& comm) {
  gatherv_impl(trace::CollOp::kGatherv, sdata, scount, rdata, rcounts,
               displs, type, root, comm);
}

void Proc::gatherv_impl(trace::CollOp op, const void* sdata, int scount,
                        void* rdata, std::span<const int> rcounts,
                        std::span<const int> displs, Datatype type, int root,
                        Comm& comm) {
  const int me = rank(comm);
  const int p = comm.size();
  const std::size_t esz = datatype_size(type);
  const std::int64_t sbytes = bytes_of(scount, type);
  const trace::RegionId reg = world_->region(
      op == trace::CollOp::kGather ? "MPI_Gather" : "MPI_Gatherv",
      trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, op, root, type, -1, seq, reg);
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(me);

  // Every rank (root included) contributes a copy of its send buffer.
  if (inst.contrib.empty()) inst.contrib.resize(static_cast<std::size_t>(p));
  inst.contrib[ume].assign(static_cast<const std::byte*>(sdata),
                           static_cast<const std::byte*>(sdata) + sbytes);

  auto assemble = [&](detail::CollInstance& ci) {
    // Runs in whichever rank completes the instance; writes the root buffer.
    const std::size_t uroot = static_cast<std::size_t>(ci.root);
    std::byte* out = static_cast<std::byte*>(ci.out_ptr[uroot]);
    for (int r = 0; r < p; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      const std::int64_t need =
          static_cast<std::int64_t>(ci.contrib[ur].size());
      const std::int64_t want =
          static_cast<std::int64_t>(esz) * ci.out_counts[ur];
      if (need != want) {
        throw MpiError("gatherv: rank " + std::to_string(r) + " sent " +
                       std::to_string(need) + " bytes, root expected " +
                       std::to_string(want));
      }
      std::memcpy(out + static_cast<std::int64_t>(esz) * ci.out_displs[ur],
                  ci.contrib[ur].data(), static_cast<std::size_t>(need));
    }
  };

  const VDur cost = world_->cost().collective_time(p, sbytes);
  if (me == root) {
    require(static_cast<int>(rcounts.size()) == p,
            "gatherv: rcounts must have one entry per rank");
    require(static_cast<int>(displs.size()) == p,
            "gatherv: displs must have one entry per rank");
    std::int64_t total = 0;
    for (int r = 0; r < p; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      inst.out_counts[ur] = rcounts[ur];
      inst.out_displs[ur] = displs[ur];
      total = std::max(total, static_cast<std::int64_t>(displs[ur]) +
                                  rcounts[ur]);
    }
    inst.out_ptr[ume] = rdata;
    inst.out_capacity[ume] = static_cast<std::int64_t>(esz) * total;
    if (inst.arrived == p) {
      assemble(inst);
      ctx_.advance_to(inst.max_enter + cost);
    } else {
      inst.root_waiting = true;
      ctx_.block("MPI_Gatherv (root waiting for contributions)");
    }
  } else {
    if (inst.arrived == p && inst.root_waiting) {
      // We are the last contributor and the root is already blocked.
      assemble(inst);
      const VTime root_end = inst.max_enter + cost;
      inst.exit_at[static_cast<std::size_t>(root)] = root_end;
      inst.root_waiting = false;
      ctx_.engine().wake(comm.member(root), root_end);
    }
    ctx_.advance(cost);
  }
  coll_finish(comm, seq, op, enter_t, me == root ? 0 : sbytes,
              me == root ? sbytes * p : 0, reg);
}

void Proc::reduce(const void* sdata, void* rdata, int count, Datatype type,
                  ReduceOp rop, int root, Comm& comm) {
  const int me = rank(comm);
  const int p = comm.size();
  const std::int64_t bytes = bytes_of(count, type);
  const trace::RegionId reg =
      world_->region("MPI_Reduce", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst =
      coll_enter(comm, trace::CollOp::kReduce, root, type, bytes, seq, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(me);
  inst.rop = rop;
  if (inst.contrib.empty()) inst.contrib.resize(static_cast<std::size_t>(p));
  inst.contrib[ume].assign(static_cast<const std::byte*>(sdata),
                           static_cast<const std::byte*>(sdata) + bytes);

  auto combine_all = [&, count](detail::CollInstance& ci) {
    const std::size_t uroot = static_cast<std::size_t>(ci.root);
    std::byte* out = static_cast<std::byte*>(ci.out_ptr[uroot]);
    std::memcpy(out, ci.contrib[0].data(), ci.contrib[0].size());
    for (int r = 1; r < p; ++r) {
      reduce_combine(ci.rop, ci.type,
                     ci.contrib[static_cast<std::size_t>(r)].data(), out,
                     count);
    }
  };

  const VDur cost = world_->cost().collective_time(p, bytes);
  if (me == root) {
    inst.out_ptr[ume] = rdata;
    inst.out_capacity[ume] = bytes;
    if (inst.arrived == p) {
      combine_all(inst);
      ctx_.advance_to(inst.max_enter + cost);
    } else {
      inst.root_waiting = true;
      ctx_.block("MPI_Reduce (root waiting for contributions)");
    }
  } else {
    if (inst.arrived == p && inst.root_waiting) {
      combine_all(inst);
      const VTime root_end = inst.max_enter + cost;
      inst.exit_at[static_cast<std::size_t>(root)] = root_end;
      inst.root_waiting = false;
      ctx_.engine().wake(comm.member(root), root_end);
    }
    ctx_.advance(cost);
  }
  coll_finish(comm, seq, trace::CollOp::kReduce, enter_t,
              me == root ? 0 : bytes, me == root ? bytes : 0, reg);
}

void Proc::allreduce(const void* sdata, void* rdata, int count, Datatype type,
                     ReduceOp rop, Comm& comm) {
  const int p = comm.size();
  const std::int64_t bytes = bytes_of(count, type);
  check_disjoint(sdata, bytes, rdata, bytes, "allreduce");
  const trace::RegionId reg =
      world_->region("MPI_Allreduce", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst =
      coll_enter(comm, trace::CollOp::kAllreduce, -1, type, bytes, seq, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(rank(comm));
  inst.rop = rop;
  inst.in_ptr[ume] = static_cast<const std::byte*>(sdata);
  inst.out_ptr[ume] = rdata;
  inst.out_capacity[ume] = bytes;

  coll_all_wait(comm, inst, seq, [count, p](detail::CollInstance& ci) {
    if (count == 0) return;
    // Reduce into rank 0's receive buffer, then hand that result out.
    const auto n = static_cast<std::size_t>(ci.bytes_per_rank);
    auto* acc = static_cast<std::byte*>(ci.out_ptr[0]);
    std::memcpy(acc, ci.in_ptr[0], n);
    for (int r = 1; r < p; ++r) {
      reduce_combine(ci.rop, ci.type, ci.in_ptr[static_cast<std::size_t>(r)],
                     acc, count);
    }
    for (int r = 1; r < p; ++r) {
      std::memcpy(ci.out_ptr[static_cast<std::size_t>(r)], acc, n);
    }
  });
  coll_finish(comm, seq, trace::CollOp::kAllreduce, enter_t, bytes, bytes,
              reg);
}

void Proc::alltoall(const void* sdata, int scount, void* rdata, int rcount,
                    Datatype type, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(scount, type);
  require(scount == rcount, "alltoall: scount must equal rcount");
  check_disjoint(sdata, block * p, rdata, block * p, "alltoall");
  const trace::RegionId reg =
      world_->region("MPI_Alltoall", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, trace::CollOp::kAlltoall, -1,
                                          type, block * p, seq, reg);
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(rank(comm));
  inst.in_ptr[ume] = static_cast<const std::byte*>(sdata);
  inst.out_ptr[ume] = rdata;
  inst.out_capacity[ume] = block * p;

  coll_all_wait(comm, inst, seq, [p, block](detail::CollInstance& ci) {
    if (block == 0) return;
    for (int i = 0; i < p; ++i) {
      std::byte* out =
          static_cast<std::byte*>(ci.out_ptr[static_cast<std::size_t>(i)]);
      for (int j = 0; j < p; ++j) {
        std::memcpy(out + block * j,
                    ci.in_ptr[static_cast<std::size_t>(j)] + block * i,
                    static_cast<std::size_t>(block));
      }
    }
  });
  coll_finish(comm, seq, trace::CollOp::kAlltoall, enter_t, block * p,
              block * p, reg);
}

void Proc::allgather(const void* sdata, int scount, void* rdata, int rcount,
                     Datatype type, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(scount, type);
  require(scount == rcount, "allgather: scount must equal rcount");
  check_disjoint(sdata, block, rdata, block * p, "allgather");
  const trace::RegionId reg =
      world_->region("MPI_Allgather", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, trace::CollOp::kAllgather, -1,
                                          type, block, seq, reg);
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(rank(comm));
  inst.in_ptr[ume] = static_cast<const std::byte*>(sdata);
  inst.out_ptr[ume] = rdata;
  inst.out_capacity[ume] = block * p;

  coll_all_wait(comm, inst, seq, [p, block](detail::CollInstance& ci) {
    if (block == 0) return;
    for (int i = 0; i < p; ++i) {
      std::byte* out =
          static_cast<std::byte*>(ci.out_ptr[static_cast<std::size_t>(i)]);
      for (int j = 0; j < p; ++j) {
        std::memcpy(out + block * j, ci.in_ptr[static_cast<std::size_t>(j)],
                    static_cast<std::size_t>(block));
      }
    }
  });
  coll_finish(comm, seq, trace::CollOp::kAllgather, enter_t, block,
              block * p, reg);
}

void Proc::scan(const void* sdata, void* rdata, int count, Datatype type,
                ReduceOp rop, Comm& comm) {
  const int p = comm.size();
  const std::int64_t bytes = bytes_of(count, type);
  check_disjoint(sdata, bytes, rdata, bytes, "scan");
  const trace::RegionId reg =
      world_->region("MPI_Scan", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst =
      coll_enter(comm, trace::CollOp::kScan, -1, type, bytes, seq, reg,
                 static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(rank(comm));
  inst.rop = rop;
  inst.in_ptr[ume] = static_cast<const std::byte*>(sdata);
  inst.out_ptr[ume] = rdata;
  inst.out_capacity[ume] = bytes;

  coll_all_wait(comm, inst, seq, [count, p](detail::CollInstance& ci) {
    if (count == 0) return;
    // Rank r's prefix is rank r-1's prefix combined with rank r's input.
    const auto n = static_cast<std::size_t>(ci.bytes_per_rank);
    std::memcpy(ci.out_ptr[0], ci.in_ptr[0], n);
    for (int r = 1; r < p; ++r) {
      const std::size_t ur = static_cast<std::size_t>(r);
      std::memcpy(ci.out_ptr[ur], ci.out_ptr[ur - 1], n);
      reduce_combine(ci.rop, ci.type, ci.in_ptr[ur], ci.out_ptr[ur], count);
    }
  });
  coll_finish(comm, seq, trace::CollOp::kScan, enter_t, bytes, bytes, reg);
}

void Proc::reduce_scatter_block(const void* sdata, void* rdata, int count,
                                Datatype type, ReduceOp rop, Comm& comm) {
  const int p = comm.size();
  const std::int64_t block = bytes_of(count, type);
  check_disjoint(sdata, block * p, rdata, block, "reduce_scatter_block");
  const trace::RegionId reg =
      world_->region("MPI_Reduce_scatter", trace::RegionKind::kMpiColl);
  std::int64_t seq = 0;
  detail::CollInstance& inst =
      coll_enter(comm, trace::CollOp::kReduceScatter, -1, type, block * p,
                 seq, reg, static_cast<std::int32_t>(rop));
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(rank(comm));
  inst.rop = rop;
  inst.in_ptr[ume] = static_cast<const std::byte*>(sdata);
  inst.out_ptr[ume] = rdata;
  inst.out_capacity[ume] = block;

  coll_all_wait(comm, inst, seq, [count, p, block](detail::CollInstance& ci) {
    if (block == 0) return;
    // Rank r receives block r of the elementwise reduction over all inputs,
    // reduced straight into its receive buffer.
    for (int r = 0; r < p; ++r) {
      auto* out =
          static_cast<std::byte*>(ci.out_ptr[static_cast<std::size_t>(r)]);
      std::memcpy(out, ci.in_ptr[0] + block * r,
                  static_cast<std::size_t>(block));
      for (int j = 1; j < p; ++j) {
        reduce_combine(ci.rop, ci.type,
                       ci.in_ptr[static_cast<std::size_t>(j)] + block * r,
                       out, count);
      }
    }
  });
  coll_finish(comm, seq, trace::CollOp::kReduceScatter, enter_t, block * p,
              block, reg);
}

// ------------------------------------------------- communicator management

Comm* Proc::split(Comm& comm, int color, int key) {
  const int me = rank(comm);
  const int p = comm.size();
  const trace::RegionId reg =
      world_->region("MPI_Comm_split", trace::RegionKind::kMpiOther);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, trace::CollOp::kCommSplit, -1,
                                          Datatype::kInt32, 8, seq, reg);
  const VTime enter_t = ctx_.now();
  const std::size_t ume = static_cast<std::size_t>(me);
  inst.colors[ume] = color;
  inst.keys[ume] = key;

  coll_all_wait(comm, inst, seq, [&, p](detail::CollInstance& ci) {
    // Group ranks by color; order each group by (key, old rank).
    std::vector<int> colors_seen;
    for (int r = 0; r < p; ++r) {
      const int c = ci.colors[static_cast<std::size_t>(r)];
      if (c == kUndefined) continue;
      if (std::find(colors_seen.begin(), colors_seen.end(), c) ==
          colors_seen.end()) {
        colors_seen.push_back(c);
      }
    }
    std::sort(colors_seen.begin(), colors_seen.end());
    for (int c : colors_seen) {
      std::vector<int> group;
      for (int r = 0; r < p; ++r) {
        if (ci.colors[static_cast<std::size_t>(r)] == c) group.push_back(r);
      }
      std::stable_sort(group.begin(), group.end(), [&](int a, int b) {
        return ci.keys[static_cast<std::size_t>(a)] <
               ci.keys[static_cast<std::size_t>(b)];
      });
      std::vector<simt::LocationId> members;
      members.reserve(group.size());
      for (int r : group) members.push_back(comm.member(r));
      Comm& sub = world_->create_comm(
          std::move(members),
          comm.name() + ".split(c=" + std::to_string(c) + ")");
      for (int r : group) {
        ci.split_result[static_cast<std::size_t>(r)] = &sub;
      }
    }
  });
  Comm* result = inst.split_result[ume];
  coll_finish(comm, seq, trace::CollOp::kCommSplit, enter_t, 8, 8, reg);
  return result;
}

Comm& Proc::dup(Comm& comm) {
  const int me = rank(comm);
  const trace::RegionId reg =
      world_->region("MPI_Comm_dup", trace::RegionKind::kMpiOther);
  std::int64_t seq = 0;
  detail::CollInstance& inst = coll_enter(comm, trace::CollOp::kCommDup, -1,
                                          Datatype::kInt32, 0, seq, reg);
  const VTime enter_t = ctx_.now();
  coll_all_wait(comm, inst, seq, [&](detail::CollInstance& ci) {
    std::vector<simt::LocationId> members;
    for (int r = 0; r < comm.size(); ++r) members.push_back(comm.member(r));
    Comm& sub = world_->create_comm(std::move(members), comm.name() + ".dup");
    for (auto& slot : ci.split_result) slot = &sub;
  });
  Comm* result = inst.split_result[static_cast<std::size_t>(me)];
  coll_finish(comm, seq, trace::CollOp::kCommDup, enter_t, 0, 0, reg);
  return *result;
}

}  // namespace ats::mpi
