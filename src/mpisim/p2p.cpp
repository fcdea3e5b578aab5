// Point-to-point operations of the simulated MPI.
//
// Protocols: messages up to CostModel::eager_threshold bytes are *eager* —
// the sender deposits the payload and returns; the receive completes at
// max(post time, arrival time).  Larger messages (and every ssend)
// *rendezvous*: the transfer starts only when both sides are ready, and the
// sender blocks (or its isend request stays open) until then.  This is what
// makes the paper's late_receiver property expressible: under rendezvous a
// sender whose receiver is late is demonstrably blocked.
#include <cstring>

#include "mpisim/world.hpp"

namespace ats::mpi {

namespace {

std::int64_t payload_bytes(int count, Datatype type) {
  require(count >= 0, "negative element count");
  return static_cast<std::int64_t>(count) *
         static_cast<std::int64_t>(datatype_size(type));
}

int element_count(std::int64_t bytes, Datatype type) {
  return static_cast<int>(bytes /
                          static_cast<std::int64_t>(datatype_size(type)));
}

// Zero-count messages may carry null buffers, and memcpy's pointers must
// be valid even for a zero length.
void copy_payload(void* dst, const void* src, std::int64_t bytes) {
  if (bytes > 0) std::memcpy(dst, src, static_cast<std::size_t>(bytes));
}

}  // namespace

std::optional<detail::PendingMsg> Proc::match_unexpected(Comm& comm,
                                                         int my_rank,
                                                         int src, int tag) {
  auto& q = comm.unexpected_[static_cast<std::size_t>(my_rank)];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if ((src == kAnySource || it->src_rank == src) &&
        (tag == kAnyTag || it->tag == tag)) {
      detail::PendingMsg m = std::move(*it);
      q.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

std::optional<detail::PendingRecv> Proc::match_posted(Comm& comm, int dest,
                                                      int src_rank, int tag) {
  auto& q = comm.posted_[static_cast<std::size_t>(dest)];
  for (auto it = q.begin(); it != q.end(); ++it) {
    if ((it->src == kAnySource || it->src == src_rank) &&
        (it->tag == kAnyTag || it->tag == tag)) {
      detail::PendingRecv r = std::move(*it);
      q.erase(it);
      return r;
    }
  }
  return std::nullopt;
}

void Proc::complete_request(RequestState& st, VTime at, const Status& status) {
  st.done = true;
  st.complete_at = at;
  st.status = status;
  if (st.waiter != simt::kNoLocation) {
    ctx_.engine().wake(st.waiter, at);
  }
}

// ------------------------------------------------------------------- send

void Proc::send(const void* data, int count, Datatype type, int dest,
                int tag, Comm& comm) {
  send_impl(data, count, type, dest, tag, comm, /*force_sync=*/false,
            "MPI_Send");
}

void Proc::ssend(const void* data, int count, Datatype type, int dest,
                 int tag, Comm& comm) {
  send_impl(data, count, type, dest, tag, comm, /*force_sync=*/true,
            "MPI_Ssend");
}

void Proc::send_impl(const void* data, int count, Datatype type, int dest,
                     int tag, Comm& comm, bool force_sync,
                     const char* region) {
  const int me = rank(comm);
  comm.member(dest);  // range check
  require(tag >= 0, "send: tag must be non-negative");
  const std::int64_t bytes = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region(region, trace::RegionKind::kMpiP2P);
  const CostModel& cm = world_->cost();

  ctx_.yield();  // act in global virtual-time order
  tr->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(cm.send_overhead);
  tr->send(ctx_.id(), ctx_.now(), comm.member(dest), tag, comm.trace_id(),
           bytes);

  // Injected network fault: the traced send vanishes in flight.  The
  // sender's completion is modelled eagerly (the payload left its buffer);
  // the receiver simply never sees the message.
  if (world_->fault_drop_send(world_rank_, ctx_.now())) {
    tr->exit(ctx_.id(), ctx_.now(), reg);
    return;
  }

  const bool eager =
      !force_sync && bytes <= static_cast<std::int64_t>(cm.eager_threshold);
  const Status st_out{me, tag, bytes, count};

  if (eager) {
    const VTime avail = ctx_.now() + cm.p2p_latency + cm.transfer_time(bytes);
    if (auto pr = match_posted(comm, dest, me, tag)) {
      if (bytes > pr->capacity_bytes) {
        throw MpiError("message truncation: rank " + std::to_string(me) +
                       " sent " + std::to_string(bytes) + " bytes, rank " +
                       std::to_string(dest) + " posted only " +
                       std::to_string(pr->capacity_bytes));
      }
      copy_payload(pr->data, data, bytes);
      const VTime completion = later(avail, pr->posted_at);
      pr->req->is_recv = true;
      pr->req->comm_tid = comm.trace_id();
      pr->req->peer_loc = ctx_.id();
      complete_request(*pr->req, completion, st_out);
      if (pr->blocking) ctx_.engine().wake(pr->recv_loc, completion);
    } else {
      detail::PendingMsg m;
      m.src_rank = me;
      m.tag = tag;
      m.type = type;
      m.payload.assign(static_cast<const std::byte*>(data),
                       static_cast<const std::byte*>(data) + bytes);
      m.rendezvous = false;
      m.avail = avail;
      enqueue_unexpected(comm, dest, std::move(m));
    }
    tr->exit(ctx_.id(), ctx_.now(), reg);
    return;
  }

  // Rendezvous protocol.
  if (auto pr = match_posted(comm, dest, me, tag)) {
    if (bytes > pr->capacity_bytes) {
      throw MpiError("message truncation (rendezvous): " +
                     std::to_string(bytes) + " > " +
                     std::to_string(pr->capacity_bytes));
    }
    const VTime start = later(ctx_.now(), pr->posted_at);
    const VTime end = start + cm.p2p_latency + cm.transfer_time(bytes);
    copy_payload(pr->data, data, bytes);
    pr->req->is_recv = true;
    pr->req->comm_tid = comm.trace_id();
    pr->req->peer_loc = ctx_.id();
    complete_request(*pr->req, end, st_out);
    if (pr->blocking) ctx_.engine().wake(pr->recv_loc, end);
    ctx_.advance_to(end);  // the sender participates in the transfer
  } else {
    detail::PendingMsg m;
    m.src_rank = me;
    m.tag = tag;
    m.type = type;
    m.payload.assign(static_cast<const std::byte*>(data),
                     static_cast<const std::byte*>(data) + bytes);
    m.rendezvous = true;
    m.sender_ready = ctx_.now();
    m.sender_loc = ctx_.id();
    enqueue_unexpected(comm, dest, std::move(m));
    ctx_.block("MPI_Send (rendezvous, waiting for receiver)");
    // Woken by the matching receive at transfer completion.
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

Request Proc::isend(const void* data, int count, Datatype type, int dest,
                    int tag, Comm& comm) {
  return isend_impl(data, count, type, dest, tag, comm);
}

Request Proc::isend_impl(const void* data, int count, Datatype type,
                         int dest, int tag, Comm& comm) {
  const int me = rank(comm);
  comm.member(dest);  // range check
  require(tag >= 0, "isend: tag must be non-negative");
  const std::int64_t bytes = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Isend", trace::RegionKind::kMpiP2P);
  const CostModel& cm = world_->cost();

  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(cm.send_overhead);
  tr->send(ctx_.id(), ctx_.now(), comm.member(dest), tag, comm.trace_id(),
           bytes);

  auto st = std::make_shared<RequestState>();
  const Status st_out{me, tag, bytes, count};
  const bool eager = bytes <= static_cast<std::int64_t>(cm.eager_threshold);

  // Injected network fault: see send_impl.  The request completes locally;
  // the message is lost.
  if (world_->fault_drop_send(world_rank_, ctx_.now())) {
    st->done = true;
    st->complete_at = ctx_.now();
    st->status = st_out;
    tr->exit(ctx_.id(), ctx_.now(), reg);
    return Request(st);
  }

  if (eager) {
    const VTime avail = ctx_.now() + cm.p2p_latency + cm.transfer_time(bytes);
    if (auto pr = match_posted(comm, dest, me, tag)) {
      if (bytes > pr->capacity_bytes) {
        throw MpiError("message truncation on isend");
      }
      copy_payload(pr->data, data, bytes);
      const VTime completion = later(avail, pr->posted_at);
      pr->req->is_recv = true;
      pr->req->comm_tid = comm.trace_id();
      pr->req->peer_loc = ctx_.id();
      complete_request(*pr->req, completion, st_out);
      if (pr->blocking) ctx_.engine().wake(pr->recv_loc, completion);
    } else {
      detail::PendingMsg m;
      m.src_rank = me;
      m.tag = tag;
      m.type = type;
      m.payload.assign(static_cast<const std::byte*>(data),
                       static_cast<const std::byte*>(data) + bytes);
      m.rendezvous = false;
      m.avail = avail;
      enqueue_unexpected(comm, dest, std::move(m));
    }
    // The eager isend is locally complete as soon as the payload is copied.
    st->done = true;
    st->complete_at = ctx_.now();
    st->status = st_out;
  } else if (auto pr = match_posted(comm, dest, me, tag)) {
    if (bytes > pr->capacity_bytes) {
      throw MpiError("message truncation on isend (rendezvous)");
    }
    const VTime start = later(ctx_.now(), pr->posted_at);
    const VTime end = start + cm.p2p_latency + cm.transfer_time(bytes);
    copy_payload(pr->data, data, bytes);
    pr->req->is_recv = true;
    pr->req->comm_tid = comm.trace_id();
    pr->req->peer_loc = ctx_.id();
    complete_request(*pr->req, end, st_out);
    if (pr->blocking) ctx_.engine().wake(pr->recv_loc, end);
    st->done = true;
    st->complete_at = end;
    st->status = st_out;
  } else {
    // Rendezvous offer: the request completes when a receive matches.
    detail::PendingMsg m;
    m.src_rank = me;
    m.tag = tag;
    m.type = type;
    m.payload.assign(static_cast<const std::byte*>(data),
                     static_cast<const std::byte*>(data) + bytes);
    m.rendezvous = true;
    m.sender_ready = ctx_.now();
    m.send_req = st;
    enqueue_unexpected(comm, dest, std::move(m));
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
  return Request(st);
}

// ------------------------------------------------------------------- recv

void Proc::recv(void* data, int count, Datatype type, int src, int tag,
                Comm& comm, Status* status) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);  // range check
  const std::int64_t capacity = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Recv", trace::RegionKind::kMpiP2P);
  const CostModel& cm = world_->cost();

  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(cm.recv_overhead);

  Status st_out;
  if (auto m = match_unexpected(comm, me, src, tag)) {
    const std::int64_t bytes = static_cast<std::int64_t>(m->payload.size());
    if (bytes > capacity) {
      throw MpiError("message truncation: received " + std::to_string(bytes) +
                     " bytes into a " + std::to_string(capacity) +
                     "-byte buffer");
    }
    VTime end;
    if (!m->rendezvous) {
      end = later(ctx_.now(), m->avail);
    } else {
      const VTime start = later(ctx_.now(), m->sender_ready);
      end = start + cm.p2p_latency + cm.transfer_time(bytes);
      if (m->sender_loc != simt::kNoLocation) {
        ctx_.engine().wake(m->sender_loc, end);
      } else if (m->send_req) {
        complete_request(*m->send_req, end,
                         Status{m->src_rank, m->tag, bytes,
                                element_count(bytes, m->type)});
      }
    }
    copy_payload(data, m->payload.data(), bytes);
    ctx_.advance_to(end);
    st_out = Status{m->src_rank, m->tag, bytes, element_count(bytes, type)};
    tr->recv(ctx_.id(), ctx_.now(), comm.member(m->src_rank), m->tag,
             comm.trace_id(), bytes);
  } else {
    auto st = std::make_shared<RequestState>();
    st->is_recv = true;
    detail::PendingRecv pr;
    pr.src = src;
    pr.tag = tag;
    pr.type = type;
    pr.data = data;
    pr.capacity_bytes = capacity;
    pr.posted_at = ctx_.now();
    pr.recv_loc = ctx_.id();
    pr.blocking = true;
    pr.req = st;
    comm.posted_[static_cast<std::size_t>(me)].push_back(std::move(pr));
    ctx_.block("MPI_Recv (waiting for message)");
    st_out = st->status;
    tr->recv(ctx_.id(), ctx_.now(), st->peer_loc, st->status.tag,
             comm.trace_id(), st->status.bytes);
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
  if (status != nullptr) *status = st_out;
}

Request Proc::irecv(void* data, int count, Datatype type, int src, int tag,
                    Comm& comm) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);
  const std::int64_t capacity = payload_bytes(count, type);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Irecv", trace::RegionKind::kMpiP2P);
  const CostModel& cm = world_->cost();

  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  ctx_.advance(cm.recv_overhead);

  auto st = std::make_shared<RequestState>();
  st->is_recv = true;
  st->comm_tid = comm.trace_id();

  if (auto m = match_unexpected(comm, me, src, tag)) {
    const std::int64_t bytes = static_cast<std::int64_t>(m->payload.size());
    if (bytes > capacity) throw MpiError("message truncation on irecv");
    VTime end;
    if (!m->rendezvous) {
      end = later(ctx_.now(), m->avail);
    } else {
      const VTime start = later(ctx_.now(), m->sender_ready);
      end = start + cm.p2p_latency + cm.transfer_time(bytes);
      if (m->sender_loc != simt::kNoLocation) {
        ctx_.engine().wake(m->sender_loc, end);
      } else if (m->send_req) {
        complete_request(*m->send_req, end,
                         Status{m->src_rank, m->tag, bytes,
                                element_count(bytes, m->type)});
      }
    }
    copy_payload(data, m->payload.data(), bytes);
    st->peer_loc = comm.member(m->src_rank);
    complete_request(
        *st, end, Status{m->src_rank, m->tag, bytes,
                         element_count(bytes, type)});
  } else {
    detail::PendingRecv pr;
    pr.src = src;
    pr.tag = tag;
    pr.type = type;
    pr.data = data;
    pr.capacity_bytes = capacity;
    pr.posted_at = ctx_.now();
    pr.recv_loc = ctx_.id();
    pr.blocking = false;
    pr.req = st;
    comm.posted_[static_cast<std::size_t>(me)].push_back(std::move(pr));
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
  return Request(st);
}

// ----------------------------------------------------------------- wait

void Proc::wait(Request& req, Status* status) {
  require(req.valid(), "wait on an invalid request");
  RequestState* st = req.state();
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Wait", trace::RegionKind::kMpiP2P);

  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  if (!st->done) {
    st->waiter = ctx_.id();
    ctx_.block("MPI_Wait");
    st->waiter = simt::kNoLocation;
  }
  ctx_.advance_to(st->complete_at);
  if (st->is_recv && !st->recv_traced) {
    st->recv_traced = true;
    tr->recv(ctx_.id(), ctx_.now(), st->peer_loc, st->status.tag,
             st->comm_tid, st->status.bytes);
  }
  if (status != nullptr) *status = st->status;
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

void Proc::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) wait(r);
}

bool Proc::test(Request& req, Status* status) {
  require(req.valid(), "test on an invalid request");
  RequestState* st = req.state();
  ctx_.yield();
  if (!st->done || st->complete_at > ctx_.now()) return false;
  if (st->is_recv && !st->recv_traced) {
    st->recv_traced = true;
    world_->trace()->recv(ctx_.id(), ctx_.now(), st->peer_loc,
                          st->status.tag, st->comm_tid, st->status.bytes);
  }
  if (status != nullptr) *status = st->status;
  return true;
}

void Proc::enqueue_unexpected(Comm& comm, int dest,
                              detail::PendingMsg msg) {
  // When is the message visible to a probe / receivable?  Eager: at its
  // arrival time; rendezvous: as soon as the sender is ready.
  const VTime visible = msg.rendezvous ? msg.sender_ready : msg.avail;
  const int src_rank = msg.src_rank;
  const int tag = msg.tag;
  const std::int64_t bytes = static_cast<std::int64_t>(msg.payload.size());
  const int count =
      static_cast<int>(bytes /
                       static_cast<std::int64_t>(datatype_size(msg.type)));
  comm.unexpected_[static_cast<std::size_t>(dest)].push_back(std::move(msg));
  auto& waiters = comm.probing_[static_cast<std::size_t>(dest)];
  for (auto it = waiters.begin(); it != waiters.end();) {
    if ((it->src == kAnySource || it->src == src_rank) &&
        (it->tag == kAnyTag || it->tag == tag)) {
      it->st->status = Status{src_rank, tag, bytes, count};
      it->st->done = true;
      it->st->complete_at = visible;
      ctx_.engine().wake(it->loc, visible);
      it = waiters.erase(it);
    } else {
      ++it;
    }
  }
}

void Proc::send_packed(const void* data, const Layout& layout, int dest,
                       int tag, Comm& comm) {
  const std::vector<std::byte> packed = layout.pack(data);
  send(packed.data(), layout.element_count(), layout.base(), dest, tag,
       comm);
}

void Proc::recv_packed(void* data, const Layout& layout, int src, int tag,
                       Comm& comm, Status* status) {
  std::vector<std::byte> packed(
      static_cast<std::size_t>(layout.packed_bytes()));
  recv(packed.data(), layout.element_count(), layout.base(), src, tag, comm,
       status);
  layout.unpack(packed, data);
}

void Proc::probe(int src, int tag, Comm& comm, Status* status) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Probe", trace::RegionKind::kMpiP2P);
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  Status st_out;
  bool found = false;
  for (const auto& m : comm.unexpected_[static_cast<std::size_t>(me)]) {
    if ((src == kAnySource || m.src_rank == src) &&
        (tag == kAnyTag || m.tag == tag)) {
      const std::int64_t bytes =
          static_cast<std::int64_t>(m.payload.size());
      st_out = Status{m.src_rank, m.tag, bytes,
                      static_cast<int>(
                          bytes / static_cast<std::int64_t>(
                                      datatype_size(m.type)))};
      ctx_.advance_to(m.rendezvous ? m.sender_ready : m.avail);
      found = true;
      break;
    }
  }
  if (!found) {
    detail::ProbeWaiter w;
    w.src = src;
    w.tag = tag;
    w.loc = ctx_.id();
    w.st = std::make_shared<RequestState>();
    comm.probing_[static_cast<std::size_t>(me)].push_back(w);
    ctx_.block("MPI_Probe (waiting for a matching envelope)");
    st_out = w.st->status;
  }
  tr->exit(ctx_.id(), ctx_.now(), reg);
  if (status != nullptr) *status = st_out;
}

bool Proc::iprobe(int src, int tag, Comm& comm, Status* status) {
  const int me = rank(comm);
  if (src != kAnySource) comm.member(src);
  ctx_.yield();
  for (const auto& m : comm.unexpected_[static_cast<std::size_t>(me)]) {
    if ((src == kAnySource || m.src_rank == src) &&
        (tag == kAnyTag || m.tag == tag)) {
      const VTime visible = m.rendezvous ? m.sender_ready : m.avail;
      if (visible > ctx_.now()) continue;  // not arrived yet
      if (status != nullptr) {
        const std::int64_t bytes =
            static_cast<std::int64_t>(m.payload.size());
        *status = Status{m.src_rank, m.tag, bytes,
                         static_cast<int>(
                             bytes / static_cast<std::int64_t>(
                                         datatype_size(m.type)))};
      }
      return true;
    }
  }
  return false;
}

void Proc::sendrecv(const void* sdata, int scount, Datatype stype, int dest,
                    int stag, void* rdata, int rcount, Datatype rtype,
                    int src, int rtag, Comm& comm, Status* status) {
  auto* tr = world_->trace();
  const trace::RegionId reg =
      world_->region("MPI_Sendrecv", trace::RegionKind::kMpiP2P);
  ctx_.yield();
  tr->enter(ctx_.id(), ctx_.now(), reg);
  Request r = irecv(rdata, rcount, rtype, src, rtag, comm);
  send(sdata, scount, stype, dest, stag, comm);
  wait(r, status);
  tr->exit(ctx_.id(), ctx_.now(), reg);
}

}  // namespace ats::mpi
