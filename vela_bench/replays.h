// Per-layer replays for the traced run: each calls one layer's public
// functions on inputs shaped like the workload, inside spans named
// "<layer>.<call>" whose "reps" arg counts the calls a span covers.
#pragma once

#include <string>
#include <vector>

#include "moe/gate.h"
#include "workload.h"

namespace vela_bench {

// Placement LP re-solve on the subject's profiled P (VELA only).
void replay_placement(Subject& subject, Tracer& tr);

// PagedStore at kPagedBudget, replaying one worker's pin/unpin order for
// the given step routings, plus isolated page-in / page-out (VELA only).
void replay_store(Subject& subject,
                  const std::vector<std::vector<vela::moe::RoutePlan>>& steps,
                  const std::string& store_dir, Tracer& tr);

// Dense twin: forward, backward (with tape size), AdamW step, full step,
// and the gate.
void replay_dense(const Workload& wl, const Inputs& in, const Batch& batch,
                  Tracer& tr);

// Tensor kernels at the workloads' expert and projection shapes, the q8
// GEMM of the int8 wire tier, and the thread pool's speed-up.
void replay_kernels(Tracer& tr);

// Frame codec on a dispatch message of the workload's size and dtype, and a
// round trip over each transport kind.
void replay_comm(const Workload& wl, Tracer& tr);

}  // namespace vela_bench
