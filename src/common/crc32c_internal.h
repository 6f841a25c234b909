// The two CRC32C implementations crc32c::Extend() picks between at static
// init, exposed so tests can check that they agree. Callers use crc32c.h.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kvaccel::crc32c::internal {

// Byte-at-a-time table loop; runs on any CPU.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// True when the CPU has the SSE4.2 crc32 instruction (CPUID).
bool HardwareAvailable();

// The crc32 instruction, eight bytes at a time. Call only when
// HardwareAvailable(); off x86-64 it is the portable loop.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

}  // namespace kvaccel::crc32c::internal
