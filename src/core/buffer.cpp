#include "core/buffer.hpp"

#include <cmath>
#include <cstring>

namespace ats::core {

MpiBuf::MpiBuf(mpi::Datatype type, int count) : type_(type), count_(count) {
  require(count >= 0, "MpiBuf: negative element count");
  storage_.assign(static_cast<std::size_t>(count) *
                      mpi::datatype_size(type),
                  std::byte{0});
}

void MpiBuf::fill_int(std::int64_t value) {
  switch (type_) {
    case mpi::Datatype::kByte:
    case mpi::Datatype::kChar: {
      std::memset(storage_.data(), static_cast<int>(value), storage_.size());
      return;
    }
    case mpi::Datatype::kInt32: {
      auto v = as<std::int32_t>();
      for (auto& x : v) x = static_cast<std::int32_t>(value);
      return;
    }
    case mpi::Datatype::kInt64: {
      auto v = as<std::int64_t>();
      for (auto& x : v) x = value;
      return;
    }
    case mpi::Datatype::kFloat: {
      auto v = as<float>();
      for (auto& x : v) x = static_cast<float>(value);
      return;
    }
    case mpi::Datatype::kDouble: {
      auto v = as<double>();
      for (auto& x : v) x = static_cast<double>(value);
      return;
    }
  }
  throw UsageError("MpiBuf::fill_int: unknown datatype");
}

MpiVBuf::MpiVBuf(mpi::Datatype type, const Distribution& d, double scale,
                 int comm_size, int my_rank, int root)
    : type_(type), rank_(my_rank) {
  require(comm_size >= 1, "MpiVBuf: group size must be >= 1");
  require(my_rank >= 0 && my_rank < comm_size, "MpiVBuf: rank out of range");
  counts_.resize(static_cast<std::size_t>(comm_size));
  displs_.resize(static_cast<std::size_t>(comm_size));
  for (int r = 0; r < comm_size; ++r) {
    const double v = d(r, comm_size, scale);
    counts_[static_cast<std::size_t>(r)] =
        v > 0 ? static_cast<int>(std::llround(v)) : 0;
    displs_[static_cast<std::size_t>(r)] = total_;
    total_ += counts_[static_cast<std::size_t>(r)];
  }
  const std::size_t esz = mpi::datatype_size(type);
  if (my_rank == root) {
    root_storage_.assign(static_cast<std::size_t>(total_) * esz,
                         std::byte{0});
  }
  my_storage_.assign(
      static_cast<std::size_t>(counts_[static_cast<std::size_t>(my_rank)]) *
          esz,
      std::byte{0});
}

}  // namespace ats::core
