#pragma once

/// \file message.h
/// Message envelope and buffer types for the in-process message-passing
/// layer (see comm/communicator.h). Payloads are reference-counted byte
/// buffers allocated through mem::PoolRouter: a small message takes a
/// recycled pool block, a large one its own mapping.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/allocators.h"

namespace rmcrt::comm {

/// Wildcards matching MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A contiguous payload buffer. Uses the pooled allocator so message
/// traffic never touches (or fragments) the general heap.
using Buffer = std::vector<std::byte, mem::PooledAllocator<std::byte>>;

/// An in-flight message: envelope plus shared payload. The payload is
/// shared so a completed send can hand the bytes to the matching receive
/// without a second copy when sizes allow.
struct Message {
  int src = -1;
  int dst = -1;
  std::int64_t tag = 0;
  std::shared_ptr<Buffer> payload;

  std::size_t bytes() const { return payload ? payload->size() : 0; }
};

/// Make a payload buffer holding a copy of [data, data+bytes).
inline std::shared_ptr<Buffer> makePayload(const void* data,
                                           std::size_t bytes) {
  auto buf = std::make_shared<Buffer>(bytes);
  if (bytes > 0) std::memcpy(buf->data(), data, bytes);
  return buf;
}

}  // namespace rmcrt::comm
