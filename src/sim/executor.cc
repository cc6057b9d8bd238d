/**
 * @file
 * The functional SIMT executor: scheduler, decoded dispatch loop and
 * shared evaluation helpers.
 *
 * Execution model: CTAs run sequentially (they are independent up to
 * global memory, as in the CUDA model where no inter-CTA ordering may be
 * assumed).  Within a CTA, threads run cooperatively: each thread
 * executes until it exits or reaches a bar.sync; when every live thread
 * has arrived, the barrier releases.  This is functionally equivalent to
 * warp-synchronous execution for barrier-correct programs while keeping
 * the interpreter simple and fast.
 *
 * The hot path is runThreadDecoded: a dense switch over pre-decoded
 * DecodedOps (compiled to a jump table) with the thread's pc/icnt/
 * faultBits cached in locals and its register slab addressed directly.
 * The original per-step interpreter lives on in executor_ref.cc as the
 * reference engine; both share every arithmetic and fault-hook helper
 * through exec_impl.hh, and the differential suite holds them
 * bit-identical.
 */

#include "sim/executor.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sim/exec_impl.hh"
#include "util/logging.hh"

namespace fsp::sim {

std::string
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Completed: return "completed";
      case RunStatus::Crashed: return "crashed";
      case RunStatus::Hung: return "hung";
      case RunStatus::SliceHazard: return "slice-hazard";
    }
    panic("unreachable RunStatus");
}

CtaRange
CtaRange::contiguous(std::uint64_t begin, std::uint64_t end)
{
    CtaRange range;
    for (std::uint64_t cta = begin; cta < end; ++cta)
        range.ctas.push_back(cta);
    return range;
}

CtaRange
CtaRange::of(std::vector<std::uint64_t> ids)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return {std::move(ids)};
}

namespace exec {

namespace {

/** Float->int conversion with CUDA-like saturation and NaN->0. */
inline std::int64_t
floatToInt(double v, unsigned bits, bool is_signed)
{
    if (std::isnan(v))
        return 0;
    double lo, hi;
    if (is_signed) {
        lo = -std::ldexp(1.0, static_cast<int>(bits) - 1);
        hi = std::ldexp(1.0, static_cast<int>(bits) - 1) - 1.0;
    } else {
        lo = 0.0;
        hi = std::ldexp(1.0, static_cast<int>(bits)) - 1.0;
    }
    if (v < lo)
        v = lo;
    if (v > hi)
        v = hi;
    return static_cast<std::int64_t>(std::trunc(v));
}

/**
 * Fused-multiply-add candidates live in one place so the decoded fast
 * path and evalAluOp compile the *same expression* -- whatever the
 * compiler's floating-point contraction policy, both engines agree.
 */
inline std::uint64_t
madF32(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return fromF32(asF32(a) * asF32(b) + asF32(c));
}

inline std::uint64_t
madF64(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return fromF64(asF64(a) * asF64(b) + asF64(c));
}

} // namespace

std::uint64_t
evalAluOp(Opcode op, DataType t, std::uint64_t a, std::uint64_t b,
          std::uint64_t c)
{
    const unsigned bits = typeBits(t);

    if (t == DataType::F32) {
        float fa = asF32(a), fb = asF32(b);
        switch (op) {
          case Opcode::Mov: return fromF32(fa);
          case Opcode::Add: return fromF32(fa + fb);
          case Opcode::Sub: return fromF32(fa - fb);
          case Opcode::Mul: return fromF32(fa * fb);
          case Opcode::Mad: return madF32(a, b, c);
          case Opcode::Div: return fromF32(fa / fb);
          case Opcode::Min: return fromF32(std::fmin(fa, fb));
          case Opcode::Max: return fromF32(std::fmax(fa, fb));
          case Opcode::Neg: return fromF32(-fa);
          case Opcode::Abs: return fromF32(std::fabs(fa));
          case Opcode::Rcp: return fromF32(1.0f / fa);
          case Opcode::Sqrt: return fromF32(std::sqrt(fa));
          case Opcode::Rsqrt: return fromF32(1.0f / std::sqrt(fa));
          case Opcode::Ex2: return fromF32(std::exp2(fa));
          case Opcode::Lg2: return fromF32(std::log2(fa));
          case Opcode::Rem: return fromF32(std::fmod(fa, fb));
          default: break;
        }
        panic("opcode ", opcodeName(op), " not valid for f32");
    }

    if (t == DataType::F64) {
        double fa = asF64(a), fb = asF64(b);
        switch (op) {
          case Opcode::Mov: return fromF64(fa);
          case Opcode::Add: return fromF64(fa + fb);
          case Opcode::Sub: return fromF64(fa - fb);
          case Opcode::Mul: return fromF64(fa * fb);
          case Opcode::Mad: return madF64(a, b, c);
          case Opcode::Div: return fromF64(fa / fb);
          case Opcode::Min: return fromF64(std::fmin(fa, fb));
          case Opcode::Max: return fromF64(std::fmax(fa, fb));
          case Opcode::Neg: return fromF64(-fa);
          case Opcode::Abs: return fromF64(std::fabs(fa));
          case Opcode::Rcp: return fromF64(1.0 / fa);
          case Opcode::Sqrt: return fromF64(std::sqrt(fa));
          case Opcode::Rsqrt: return fromF64(1.0 / std::sqrt(fa));
          case Opcode::Rem: return fromF64(std::fmod(fa, fb));
          default: break;
        }
        panic("opcode ", opcodeName(op), " not valid for f64");
    }

    const bool sgn = isSignedType(t);
    switch (op) {
      case Opcode::Mov:
        return truncVal(a, bits);
      case Opcode::Add:
        return truncVal(a + b, bits);
      case Opcode::Sub:
        return truncVal(a - b, bits);
      case Opcode::Mul:
        return truncVal(a * b, bits);
      case Opcode::Mad:
        return truncVal(a * b + c, bits);
      case Opcode::MulWide:
      case Opcode::MadWide: {
        std::uint64_t prod;
        if (sgn) {
            prod = static_cast<std::uint64_t>(signExt(a, bits) *
                                              signExt(b, bits));
        } else {
            prod = truncVal(a, bits) * truncVal(b, bits);
        }
        std::uint64_t acc = op == Opcode::MadWide ? prod + c : prod;
        return truncVal(acc, 2 * bits);
      }
      case Opcode::Div: {
        if (truncVal(b, bits) == 0)
            return truncVal(~std::uint64_t{0}, bits);
        if (sgn) {
            std::int64_t sa = signExt(a, bits), sb = signExt(b, bits);
            // Avoid the INT_MIN / -1 trap: hardware wraps.
            if (sb == -1)
                return truncVal(static_cast<std::uint64_t>(-sa), bits);
            return truncVal(static_cast<std::uint64_t>(sa / sb), bits);
        }
        return truncVal(truncVal(a, bits) / truncVal(b, bits), bits);
      }
      case Opcode::Rem: {
        if (truncVal(b, bits) == 0)
            return truncVal(a, bits);
        if (sgn) {
            std::int64_t sa = signExt(a, bits), sb = signExt(b, bits);
            if (sb == -1)
                return 0;
            return truncVal(static_cast<std::uint64_t>(sa % sb), bits);
        }
        return truncVal(a, bits) % truncVal(b, bits);
      }
      case Opcode::Min:
        if (sgn) {
            return truncVal(static_cast<std::uint64_t>(std::min(
                                signExt(a, bits), signExt(b, bits))),
                            bits);
        }
        return std::min(truncVal(a, bits), truncVal(b, bits));
      case Opcode::Max:
        if (sgn) {
            return truncVal(static_cast<std::uint64_t>(std::max(
                                signExt(a, bits), signExt(b, bits))),
                            bits);
        }
        return std::max(truncVal(a, bits), truncVal(b, bits));
      case Opcode::Neg:
        return truncVal(0 - a, bits);
      case Opcode::Abs: {
        std::int64_t sa = signExt(a, bits);
        return truncVal(static_cast<std::uint64_t>(sa < 0 ? -sa : sa),
                        bits);
      }
      case Opcode::And:
        return truncVal(a & b, bits);
      case Opcode::Or:
        return truncVal(a | b, bits);
      case Opcode::Xor:
        return truncVal(a ^ b, bits);
      case Opcode::Not:
        return truncVal(~a, bits);
      case Opcode::Shl: {
        std::uint64_t s = truncVal(b, bits);
        if (s >= bits)
            return 0;
        return truncVal(truncVal(a, bits) << s, bits);
      }
      case Opcode::Shr: {
        std::uint64_t s = truncVal(b, bits);
        if (sgn) {
            std::int64_t sa = signExt(a, bits);
            if (s >= bits)
                return truncVal(static_cast<std::uint64_t>(sa < 0 ? -1 : 0),
                                bits);
            return truncVal(static_cast<std::uint64_t>(sa >>
                                                       static_cast<int>(s)),
                            bits);
        }
        if (s >= bits)
            return 0;
        return truncVal(a, bits) >> s;
      }
      default:
        break;
    }
    panic("opcode ", opcodeName(op), " not valid for integer types");
}

std::uint64_t
evalCvtTyped(DataType st, DataType dt, std::uint64_t raw)
{
    if (isFloatType(st)) {
        double v = st == DataType::F32 ? asF32(raw) : asF64(raw);
        if (dt == DataType::F32)
            return fromF32(static_cast<float>(v));
        if (dt == DataType::F64)
            return fromF64(v);
        return truncVal(static_cast<std::uint64_t>(floatToInt(
                            v, typeBits(dt), isSignedType(dt))),
                        typeBits(dt));
    }

    // Integer source.
    std::int64_t sv = isSignedType(st) ? signExt(raw, typeBits(st))
                                       : static_cast<std::int64_t>(
                                             truncVal(raw, typeBits(st)));
    if (dt == DataType::F32) {
        return fromF32(isSignedType(st)
                           ? static_cast<float>(sv)
                           : static_cast<float>(
                                 static_cast<std::uint64_t>(sv)));
    }
    if (dt == DataType::F64) {
        return fromF64(isSignedType(st)
                           ? static_cast<double>(sv)
                           : static_cast<double>(
                                 static_cast<std::uint64_t>(sv)));
    }
    return truncVal(static_cast<std::uint64_t>(sv), typeBits(dt));
}

bool
applyReachFault(CtaContext &ctx, std::uint64_t &pc, std::uint8_t *ccs,
                std::uint64_t global_id, std::size_t code_size,
                StopReason &halt)
{
    FaultPlan &fault = *ctx.fault;
    const std::uint32_t static_index =
        pc < code_size ? static_cast<std::uint32_t>(pc) : kNoStaticIndex;
    switch (fault.kind) {
      case FaultKind::PredState: {
        const std::uint8_t mask =
            static_cast<std::uint8_t>(fault.mask & 0xF);
        if (mask == 0)
            return false;
        if (ctx.protection != nullptr &&
            ctx.protection->covers(fault.thread, fault.dynIndex,
                                   fault.kind)) {
            noteDetected(fault, static_index);
            return false;
        }
        ccs[fault.reg % kNumPredRegs] ^= mask;
        noteApplied(fault, static_index);
        return false;
      }

      case FaultKind::PcState:
        if (ctx.protection != nullptr &&
            ctx.protection->covers(fault.thread, fault.dynIndex,
                                   fault.kind)) {
            noteDetected(fault, static_index);
            return false;
        }
        // Record the instruction the thread was about to execute; a
        // flipped pc past the code makes the thread exit (implicit
        // wild-jump exit), which the loop's bounds check handles.
        noteApplied(fault, static_index);
        pc ^= fault.mask;
        return false;

      case FaultKind::SharedMem: {
        std::uint64_t byte = 0;
        AccessError err = ctx.smem->load(fault.addr, 1, byte);
        if (err == AccessError::None) {
            err = ctx.smem->store(fault.addr, 1,
                                  byte ^ (fault.mask & 0xFF));
        }
        if (err != AccessError::None) {
            std::ostringstream os;
            os << "thread " << global_id
               << " shared-memory fault flip at unmapped 0x" << std::hex
               << fault.addr << std::dec;
            ctx.diagnostic = os.str();
            halt = StopReason::Crashed;
            return true;
        }
        noteApplied(fault, static_index);
        return false;
      }

      case FaultKind::GlobalMem: {
        // The flip is a read-modify-write of one global byte by the
        // faulty thread; in sliced runs both halves follow the same
        // hazard discipline as an instruction's load and store, so the
        // sliced classification stays exact.
        const std::uint64_t cta = global_id / ctx.blockThreads;
        std::uint64_t byte = 0;
        AccessError err = ctx.gmem.load(fault.addr, 1, byte);
        bool resolved = true;
        if (err == AccessError::None) {
            resolved = sliceLoad(ctx, cta, fault.addr, 1, byte);
            if (resolved) {
                err = ctx.gmem.store(fault.addr, 1,
                                     byte ^ (fault.mask & 0xFF));
                resolved = err != AccessError::None ||
                           sliceStore(ctx, cta, fault.addr, 1);
            }
        }
        if (!resolved) {
            std::ostringstream os;
            os << "thread " << global_id
               << " sliced-run fault-flip hazard at global 0x"
               << std::hex << fault.addr << std::dec;
            ctx.diagnostic = os.str();
            halt = StopReason::Hazard;
            return true;
        }
        if (err != AccessError::None) {
            std::ostringstream os;
            os << "thread " << global_id
               << " global-memory fault flip at unmapped 0x" << std::hex
               << fault.addr << std::dec;
            ctx.diagnostic = os.str();
            halt = StopReason::Crashed;
            return true;
        }
        noteApplied(fault, static_index);
        return false;
      }

      default:
        return false;
    }
}

namespace {

/** Resolve one pre-decoded source operand. */
[[gnu::always_inline]] inline std::uint64_t
readX(const XSrc &s, const std::uint64_t *R, const std::uint8_t *P,
      const CtaContext &ctx, std::uint32_t tid_x, std::uint32_t tid_y,
      std::uint32_t tid_z)
{
    // Plain registers and immediates dominate every real operand mix;
    // test for them with well-predicted conditional branches before
    // falling back to the jump table for the exotic kinds.
    if (s.k == XSrc::K::Reg) [[likely]]
        return R[s.reg];
    if (s.k == XSrc::K::Imm)
        return s.imm;
    switch (s.k) {
      case XSrc::K::Zero: return 0;
      case XSrc::K::Reg: return R[s.reg];
      case XSrc::K::RegLo: return R[s.reg] & 0xFFFF;
      case XSrc::K::RegHi: return (R[s.reg] >> 16) & 0xFFFF;
      case XSrc::K::Imm: return s.imm;
      case XSrc::K::Pred: return (P[s.reg] & CcZero) ? 0 : 1;
      case XSrc::K::TidX: return tid_x;
      case XSrc::K::TidY: return tid_y;
      case XSrc::K::TidZ: return tid_z;
      case XSrc::K::CtaidX: return ctx.ctaidX;
      case XSrc::K::CtaidY: return ctx.ctaidY;
      case XSrc::K::CtaidZ: return ctx.ctaidZ;
      case XSrc::K::RegComplex: {
        std::uint64_t raw = R[s.reg];
        if (s.half == static_cast<std::uint8_t>(HalfSel::Lo))
            raw &= 0xFFFF;
        else if (s.half == static_cast<std::uint8_t>(HalfSel::Hi))
            raw = (raw >> 16) & 0xFFFF;
        const DataType t = static_cast<DataType>(s.negType);
        if (t == DataType::F32)
            return fromF32(-asF32(raw));
        if (t == DataType::F64)
            return fromF64(-asF64(raw));
        return truncVal(0 - raw, typeBits(t));
      }
    }
    panic("unreachable XSrc::K");
}

/**
 * Threaded-dispatch macros for runThreadDecodedImpl.  Each handler
 * ends by expanding the epilogue + fetch + indirect jump inline, so
 * every opcode owns its own branch-prediction site (classic threaded
 * interpretation): the predictor learns (this op -> next op) pairs
 * instead of sharing one over-subscribed jump.  Computed goto is a
 * GNU extension, used unconditionally like the rest of the tree's
 * GNU attributes; the reference engine keeps a portable switch.
 *
 * FSP_DISPATCH: the per-instruction prologue -- reach-fault hook
 * (compiled out unless kFault), program-end check, the fused
 * step-limit/hang-budget check, fetch, guard evaluation, dispatch.
 * FSP_EPI(REC): the per-instruction epilogue -- fault-bits
 * accumulation and the optional trace push -- followed by the
 * prologue of the next instruction.
 */
#define FSP_DISPATCH()                                                  \
    do {                                                                \
        if constexpr (kFault) {                                         \
            if (!ctx.fault->applied && icnt == ctx.fault->dynIndex) {   \
                StopReason halt;                                        \
                if (applyReachFault(ctx, pc, P, global_id, code_size,   \
                                    halt)) {                            \
                    ret = halt;                                         \
                    goto done;                                          \
                }                                                       \
            }                                                           \
        }                                                               \
        if (pc >= code_size)                                            \
            goto ran_off_end;                                           \
        if (icnt >= stop_icnt) [[unlikely]]                             \
            goto hit_stop;                                              \
        op = code + pc;                                                 \
        dyn_index = icnt++;                                             \
        if (!guardCcPasses(op->guardCond, op->guardPred, P))            \
            [[unlikely]]                                                \
            goto guard_failed;                                          \
        goto *kJump[static_cast<unsigned>(op->x)];                      \
    } while (0)

#define FSP_EPI_AT(REC, EXEC)                                           \
    do {                                                                \
        fbits += (REC);                                                 \
        if constexpr (kTraced)                                          \
            dyn_trace->push_back(makeDynRecord(*op, (REC), (EXEC),      \
                                               record_values, R, P));   \
        FSP_DISPATCH();                                                 \
    } while (0)

#define FSP_EPI(REC) FSP_EPI_AT(REC, true)

/**
 * Writeback of @p VALUE through the op's destination -- a GPR value
 * or a 4-bit CC register (with an optional data side-effect through
 * dest2, PTXPlus "$p0|$r1" style) -- then the epilogue.
 */
#define FSP_WB_EPI(VALUE)                                               \
    do {                                                                \
        const std::uint64_t wb_value_ = (VALUE);                        \
        std::uint16_t recorded = 0;                                     \
        if (op->destKind == DecodedOp::Dest::Gp) [[likely]] {           \
            R[op->destReg] = wb_value_;                                 \
            recorded = op->recordedBits;                                \
            if (kFault) {                                               \
                applyDestFault(R[op->destReg], ctx, dyn_index,          \
                               recorded, op->staticIndex);              \
            }                                                           \
        } else if (op->destKind == DecodedOp::Dest::Pred) {             \
            P[op->destReg] = ccFromValue(                               \
                wb_value_, static_cast<DataType>(op->ccType));          \
            recorded = op->recordedBits;                                \
            if (kFault) {                                               \
                std::uint64_t cc = P[op->destReg];                      \
                if (applyDestFault(cc, ctx, dyn_index, recorded,        \
                                   op->staticIndex)) {                  \
                    P[op->destReg] = static_cast<std::uint8_t>(cc);     \
                }                                                       \
            }                                                           \
            if (op->dest2Reg != kNoDenseReg)                            \
                R[op->dest2Reg] = wb_value_;                            \
        }                                                               \
        pc++;                                                           \
        FSP_EPI(recorded);                                              \
    } while (0)

/**
 * Build the trace record of one issued instruction.  Under a
 * recordValues run the record additionally carries the guard outcome
 * and -- for instructions that performed a destination writeback --
 * the post-writeback register content, read back through the decoded
 * op's dest descriptor (the reference engine records the identical
 * value from its own writeback sites).
 */
inline DynRecord
makeDynRecord(const DecodedOp &op, std::uint16_t recordedBits,
              bool executed, bool recordValues, const std::uint64_t *R,
              const std::uint8_t *P)
{
    DynRecord record{op.staticIndex, recordedBits};
    if (recordValues) {
        record.flags = executed ? DynRecord::kExecuted : 0;
        if (executed && recordedBits != 0) {
            const std::uint64_t value =
                op.destKind == DecodedOp::Dest::Pred ? P[op.destReg]
                                                     : R[op.destReg];
            record.valueLo = static_cast<std::uint32_t>(value);
            record.valueHi = static_cast<std::uint32_t>(value >> 32);
        }
    }
    return record;
}

/**
 * The interpreter loop, specialised at compile time on the two rare
 * per-thread conditions: @p kFault (this thread carries the fault
 * plan) and @p kTraced (this thread records a dynamic trace).  All
 * but one thread per injection run -- and every thread of a golden
 * run -- execute the <false, false> instantiation, where the
 * fault-reach check, the corrupt-destination probes, and the trace
 * push compile out of the per-instruction path entirely.
 */
template <bool kFault, bool kTraced>
StopReason
runThreadDecodedImpl(MachineState &ms, std::uint32_t tl,
                     CtaContext &ctx, std::uint64_t max_steps,
                     [[maybe_unused]] std::vector<DynRecord> *dyn_trace)
{
    // Label-address dispatch table, indexed by the XOp enumerator
    // value: entry order MUST match the XOp declaration order in
    // decoded.hh (the static_assert pins the count).
    static const void *const kJump[] = {
        &&x_Nop,      &&x_Exit,     &&x_Bra,      &&x_Bar,
        &&x_LdGlobal, &&x_LdShared, &&x_LdParam,  &&x_StGlobal,
        &&x_StShared, &&x_MovI,     &&x_AddI,     &&x_SubI,
        &&x_MulI,     &&x_MadI,     &&x_MulWideI, &&x_MadWideI,
        &&x_MinI,     &&x_MaxI,     &&x_NegI,     &&x_AbsI,
        &&x_AndI,     &&x_OrI,      &&x_XorI,     &&x_NotI,
        &&x_ShlI,     &&x_ShrI,     &&x_AddF32,   &&x_SubF32,
        &&x_MulF32,   &&x_MadF32,   &&x_MinF32,   &&x_MaxF32,
        &&x_NegF32,   &&x_AbsF32,   &&x_AddF64,   &&x_SubF64,
        &&x_MulF64,   &&x_MadF64,   &&x_MinF64,   &&x_MaxF64,
        &&x_NegF64,   &&x_AbsF64,   &&x_SetCmp,   &&x_SelpV,
        &&x_CvtV,     &&x_AluSlow,
    };
    static_assert(static_cast<unsigned>(XOp::AluSlow) + 1 ==
                      sizeof(kJump) / sizeof(kJump[0]),
                  "dispatch table must cover every XOp");

    const DecodedOp *code = ctx.dec->code().data();
    const std::size_t code_size = ctx.dec->size();

    const std::uint64_t global_id =
        ms.ctaLinear * ctx.blockThreads + tl;
    const std::uint32_t bx = ctx.block.x;
    const std::uint32_t tid_x = tl % bx;
    const std::uint32_t tid_y = (tl / bx) % ctx.block.y;
    const std::uint32_t tid_z = tl / (bx * ctx.block.y);

    // Hot per-thread scalars live in locals for the whole slice; every
    // exit path below funnels through `done` to write them back.
    std::uint64_t *R = ms.regs(tl);
    std::uint8_t *P = ms.ccs(tl);
    [[maybe_unused]] const bool record_values =
        kTraced && ctx.opts != nullptr && ctx.opts->recordValues;
    std::uint64_t pc = ms.pc(tl);
    std::uint64_t icnt = ms.icnt(tl);
    std::uint64_t fbits = ms.faultBits(tl);
    StopReason ret;

    // Fold the slice-step ceiling and the hang budget into a single
    // per-iteration compare: stop at min(icnt0 + max_steps, budget)
    // and disambiguate Limit vs Hung only when actually stopping
    // (Limit wins ties, matching the historical check order).
    const std::uint64_t icnt0 = icnt;
    std::uint64_t stop_icnt = icnt0 + max_steps;
    if (stop_icnt < icnt0) // saturate on overflow
        stop_icnt = ~std::uint64_t{0};
    if (ctx.budget < stop_icnt)
        stop_icnt = ctx.budget;

    // Dispatch state and the carriers for the cold memory-fault
    // diagnostics below the handlers.
    const DecodedOp *op = code;
    std::uint64_t dyn_index = 0;
    bool mem_is_ld = false;
    std::uint64_t mem_addr = 0;
    AccessError mem_err = AccessError::None;
    const DecodedOp *mem_op = nullptr;

    auto rd = [&](unsigned k) __attribute__((always_inline)) {
        return readX(op->src[k], R, P, ctx, tid_x, tid_y, tid_z);
    };

    FSP_DISPATCH(); // enter the threaded loop

  guard_failed:
    // Guard failed: the instruction issues (counted in iCnt, as in
    // the PTXPlus trace model) but performs no writeback, no branch,
    // and no barrier arrival.
    pc++;
    FSP_EPI_AT(0, false);

  x_Nop:
    pc++;
    FSP_EPI(0);

  x_Exit:
    if constexpr (kTraced)
        dyn_trace->push_back(
            makeDynRecord(*op, 0, true, record_values, R, P));
    ms.setExited(tl);
    ret = StopReason::Exited;
    goto done;

  x_Bra:
    pc = op->target;
    FSP_EPI(0);

  x_Bar:
    pc++;
    if (kFault && ctx.fault->kind == FaultKind::BarrierSkip &&
        !ctx.fault->applied && dyn_index >= ctx.fault->dynIndex) {
        // Corrupted barrier bookkeeping: the thread's arrival is
        // lost, so it runs ahead into the next phase while the
        // others rendezvous without it.
        noteApplied(*ctx.fault, op->staticIndex);
        FSP_EPI(0);
    }
    if constexpr (kTraced)
        dyn_trace->push_back(
            makeDynRecord(*op, 0, true, record_values, R, P));
    ret = StopReason::Barrier;
    goto done;

    // The five memory forms each run straight-line: only globals pay
    // the sliced-run hazard probe and footprint append.  Mem
    // addressing is shared: addr = 32-bit base reg (or 0) + offset.
    // Error and hazard diagnostics funnel through the cold labels
    // below the handlers.
  x_LdGlobal: {
    const std::uint64_t addr =
        (op->memBase != kNoDenseReg ? truncVal(R[op->memBase], 32)
                                    : 0) +
        static_cast<std::uint64_t>(op->memOffset);
    std::uint64_t value = 0;
    const AccessError err = ctx.gmem.load(addr, op->width, value);
    if (err != AccessError::None) [[unlikely]] {
        mem_is_ld = true;
        mem_addr = addr;
        mem_err = err;
        mem_op = op;
        goto mem_crash;
    }
    if (!sliceLoad(ctx, ms.ctaLinear, addr, op->width, value))
        [[unlikely]] {
        mem_is_ld = true;
        mem_addr = addr;
        mem_op = op;
        goto mem_hazard;
    }
    if (ctx.fpReads)
        ctx.fpReads->push_back({addr, addr + op->width});
    // Sign-extend signed loads into the register.
    if (op->ldSigned)
        value = static_cast<std::uint64_t>(signExt(value, op->bits));
    std::uint16_t recorded = 0;
    if (op->destKind == DecodedOp::Dest::Gp) {
        R[op->destReg] = value;
        recorded = op->recordedBits;
        if (kFault) {
            applyDestFault(R[op->destReg], ctx, dyn_index, recorded,
                           op->staticIndex);
        }
    }
    pc++;
    FSP_EPI(recorded);
  }

  x_LdShared:
  x_LdParam: {
    const std::uint64_t addr =
        (op->memBase != kNoDenseReg ? truncVal(R[op->memBase], 32)
                                    : 0) +
        static_cast<std::uint64_t>(op->memOffset);
    std::uint64_t value = 0;
    const AccessError err =
        op->x == XOp::LdShared
            ? ctx.smem->load(addr, op->width, value)
            : ctx.params.load(addr, op->width, value);
    if (err != AccessError::None) [[unlikely]] {
        mem_is_ld = true;
        mem_addr = addr;
        mem_err = err;
        mem_op = op;
        goto mem_crash;
    }
    if (op->ldSigned)
        value = static_cast<std::uint64_t>(signExt(value, op->bits));
    std::uint16_t recorded = 0;
    if (op->destKind == DecodedOp::Dest::Gp) {
        R[op->destReg] = value;
        recorded = op->recordedBits;
        if (kFault) {
            applyDestFault(R[op->destReg], ctx, dyn_index, recorded,
                           op->staticIndex);
        }
    }
    pc++;
    FSP_EPI(recorded);
  }

  x_StGlobal: {
    const std::uint64_t addr =
        (op->memBase != kNoDenseReg ? truncVal(R[op->memBase], 32)
                                    : 0) +
        static_cast<std::uint64_t>(op->memOffset);
    const std::uint64_t value = truncVal(rd(1), op->bits);
    const AccessError err = ctx.gmem.store(addr, op->width, value);
    if (err != AccessError::None) [[unlikely]] {
        mem_is_ld = false;
        mem_addr = addr;
        mem_err = err;
        mem_op = op;
        goto mem_crash;
    }
    if (!sliceStore(ctx, ms.ctaLinear, addr, op->width)) [[unlikely]] {
        mem_is_ld = false;
        mem_addr = addr;
        mem_op = op;
        goto mem_hazard;
    }
    if (ctx.fpWrites)
        ctx.fpWrites->push_back({addr, addr + op->width});
    pc++;
    FSP_EPI(0);
  }

  x_StShared: {
    const std::uint64_t addr =
        (op->memBase != kNoDenseReg ? truncVal(R[op->memBase], 32)
                                    : 0) +
        static_cast<std::uint64_t>(op->memOffset);
    const std::uint64_t value = truncVal(rd(1), op->bits);
    const AccessError err = ctx.smem->store(addr, op->width, value);
    if (err != AccessError::None) [[unlikely]] {
        mem_is_ld = false;
        mem_addr = addr;
        mem_err = err;
        mem_op = op;
        goto mem_crash;
    }
    pc++;
    FSP_EPI(0);
  }

  x_MovI:
    FSP_WB_EPI(rd(0) & op->mask);
  x_AddI:
    FSP_WB_EPI((rd(0) + rd(1)) & op->mask);
  x_SubI:
    FSP_WB_EPI((rd(0) - rd(1)) & op->mask);
  x_MulI:
    FSP_WB_EPI((rd(0) * rd(1)) & op->mask);
  x_MadI:
    FSP_WB_EPI((rd(0) * rd(1) + rd(2)) & op->mask);

  x_MulWideI:
  x_MadWideI: {
    const std::uint64_t a = rd(0), b = rd(1);
    std::uint64_t prod;
    if (op->sgn) {
        prod = static_cast<std::uint64_t>(signExt(a, op->bits) *
                                          signExt(b, op->bits));
    } else {
        prod = truncVal(a, op->bits) * truncVal(b, op->bits);
    }
    const std::uint64_t acc =
        op->x == XOp::MadWideI ? prod + rd(2) : prod;
    FSP_WB_EPI(truncVal(acc, 2 * op->bits));
  }

  x_MinI: {
    const std::uint64_t a = rd(0), b = rd(1);
    FSP_WB_EPI(op->sgn
                   ? truncVal(static_cast<std::uint64_t>(std::min(
                                  signExt(a, op->bits),
                                  signExt(b, op->bits))),
                              op->bits)
                   : std::min(truncVal(a, op->bits),
                              truncVal(b, op->bits)));
  }
  x_MaxI: {
    const std::uint64_t a = rd(0), b = rd(1);
    FSP_WB_EPI(op->sgn
                   ? truncVal(static_cast<std::uint64_t>(std::max(
                                  signExt(a, op->bits),
                                  signExt(b, op->bits))),
                              op->bits)
                   : std::max(truncVal(a, op->bits),
                              truncVal(b, op->bits)));
  }
  x_NegI:
    FSP_WB_EPI(truncVal(0 - rd(0), op->bits));
  x_AbsI: {
    const std::int64_t sa = signExt(rd(0), op->bits);
    FSP_WB_EPI(truncVal(static_cast<std::uint64_t>(sa < 0 ? -sa : sa),
                        op->bits));
  }
  x_AndI:
    FSP_WB_EPI((rd(0) & rd(1)) & op->mask);
  x_OrI:
    FSP_WB_EPI((rd(0) | rd(1)) & op->mask);
  x_XorI:
    FSP_WB_EPI((rd(0) ^ rd(1)) & op->mask);
  x_NotI:
    FSP_WB_EPI((~rd(0)) & op->mask);
  x_ShlI: {
    const std::uint64_t s = truncVal(rd(1), op->bits);
    FSP_WB_EPI(s >= op->bits
                   ? 0
                   : truncVal(truncVal(rd(0), op->bits) << s,
                              op->bits));
  }
  x_ShrI: {
    const std::uint64_t a = rd(0);
    const std::uint64_t s = truncVal(rd(1), op->bits);
    std::uint64_t result;
    if (op->sgn) {
        const std::int64_t sa = signExt(a, op->bits);
        result = s >= op->bits
                     ? truncVal(static_cast<std::uint64_t>(
                                    sa < 0 ? -1 : 0),
                                op->bits)
                     : truncVal(static_cast<std::uint64_t>(
                                    sa >> static_cast<int>(s)),
                                op->bits);
    } else {
        result = s >= op->bits ? 0 : truncVal(a, op->bits) >> s;
    }
    FSP_WB_EPI(result);
  }

  x_AddF32:
    FSP_WB_EPI(fromF32(asF32(rd(0)) + asF32(rd(1))));
  x_SubF32:
    FSP_WB_EPI(fromF32(asF32(rd(0)) - asF32(rd(1))));
  x_MulF32:
    FSP_WB_EPI(fromF32(asF32(rd(0)) * asF32(rd(1))));
  x_MadF32:
    FSP_WB_EPI(madF32(rd(0), rd(1), rd(2)));
  x_MinF32:
    FSP_WB_EPI(fromF32(std::fmin(asF32(rd(0)), asF32(rd(1)))));
  x_MaxF32:
    FSP_WB_EPI(fromF32(std::fmax(asF32(rd(0)), asF32(rd(1)))));
  x_NegF32:
    FSP_WB_EPI(fromF32(-asF32(rd(0))));
  x_AbsF32:
    FSP_WB_EPI(fromF32(std::fabs(asF32(rd(0)))));

  x_AddF64:
    FSP_WB_EPI(fromF64(asF64(rd(0)) + asF64(rd(1))));
  x_SubF64:
    FSP_WB_EPI(fromF64(asF64(rd(0)) - asF64(rd(1))));
  x_MulF64:
    FSP_WB_EPI(fromF64(asF64(rd(0)) * asF64(rd(1))));
  x_MadF64:
    FSP_WB_EPI(madF64(rd(0), rd(1), rd(2)));
  x_MinF64:
    FSP_WB_EPI(fromF64(std::fmin(asF64(rd(0)), asF64(rd(1)))));
  x_MaxF64:
    FSP_WB_EPI(fromF64(std::fmax(asF64(rd(0)), asF64(rd(1)))));
  x_NegF64:
    FSP_WB_EPI(fromF64(-asF64(rd(0))));
  x_AbsF64:
    FSP_WB_EPI(fromF64(std::fabs(asF64(rd(0)))));

  x_SetCmp: {
    const bool r =
        compareValues(static_cast<CmpOp>(op->cmp), rd(0), rd(1),
                      static_cast<DataType>(op->stype));
    const unsigned dbits =
        static_cast<DataType>(op->dtype) == DataType::Pred ? 32
                                                           : op->bits;
    FSP_WB_EPI(r ? truncVal(~std::uint64_t{0}, dbits) : 0);
  }

  x_SelpV: {
    const std::uint64_t a = rd(0), b = rd(1);
    FSP_WB_EPI(rd(2) ? truncVal(a, op->bits) : truncVal(b, op->bits));
  }

  x_CvtV:
    FSP_WB_EPI(evalCvtTyped(static_cast<DataType>(op->stype),
                            static_cast<DataType>(op->dtype), rd(0)));

  x_AluSlow:
    FSP_WB_EPI(evalAluOp(op->orig->op, op->orig->type, rd(0), rd(1),
                         rd(2)));

  ran_off_end:
    ms.setExited(tl);
    ret = StopReason::Exited;
    goto done;

  hit_stop:
    if (icnt - icnt0 >= max_steps) {
        ret = StopReason::Limit;
        goto done;
    }
    {
        std::ostringstream os;
        os << "thread " << global_id << " exceeded budget of "
           << ctx.budget << " dynamic instructions";
        ctx.diagnostic = os.str();
        ret = StopReason::Hung;
        goto done;
    }

    // Cold diagnostics for the memory handlers above; pulled out of
    // the hot path, which carries only the compare-and-goto.
  mem_hazard:
    {
        // Sliced-run escape: an access into a byte range other CTAs
        // touch that the resolver could not answer -- abort so the
        // injector falls back to a full-grid run.
        std::ostringstream os;
        os << "thread " << global_id << " sliced-run "
           << (mem_is_ld ? "load" : "store") << " hazard at global 0x"
           << std::hex << mem_addr << std::dec << ": "
           << mem_op->orig->text;
        ctx.diagnostic = os.str();
        ret = StopReason::Hazard;
        goto done;
    }

  mem_crash:
    {
        std::ostringstream os;
        os << "thread " << global_id << " "
           << (mem_is_ld ? "load" : "store") << " fault at "
           << spaceName(mem_op->orig->space) << " 0x" << std::hex
           << mem_addr << std::dec << " ("
           << (mem_err == AccessError::Unmapped ? "unmapped"
                                                : "misaligned")
           << "): " << mem_op->orig->text;
        ctx.diagnostic = os.str();
        ret = StopReason::Crashed;
        goto done;
    }

  done:
    ms.pc(tl) = pc;
    ms.icnt(tl) = icnt;
    ms.faultBits(tl) = fbits;
    return ret;
}

#undef FSP_WB_EPI
#undef FSP_EPI
#undef FSP_DISPATCH

} // namespace

StopReason
runThreadDecoded(MachineState &ms, std::uint32_t tl, CtaContext &ctx,
                 std::uint64_t max_steps)
{
    const std::uint64_t global_id =
        ms.ctaLinear * ctx.blockThreads + tl;

    std::vector<DynRecord> *dyn_trace = nullptr;
    if (ctx.trace && ctx.opts &&
        ctx.opts->traceThreads.count(global_id) > 0) {
        dyn_trace = &ctx.trace->dynTraces[global_id];
    }

    const bool is_fault_thread =
        ctx.fault != nullptr && ctx.fault->thread == global_id;

    if (is_fault_thread) {
        return dyn_trace
                   ? runThreadDecodedImpl<true, true>(
                         ms, tl, ctx, max_steps, dyn_trace)
                   : runThreadDecodedImpl<true, false>(
                         ms, tl, ctx, max_steps, nullptr);
    }
    return dyn_trace ? runThreadDecodedImpl<false, true>(
                           ms, tl, ctx, max_steps, dyn_trace)
                     : runThreadDecodedImpl<false, false>(
                           ms, tl, ctx, max_steps, nullptr);
}

} // namespace exec

namespace {

using exec::CtaContext;
using exec::StopReason;

/** Point @p ctx at the resolver of @p slice and its hazard sets. */
void
bindSlice(CtaContext &ctx, const CtaSlice *slice)
{
    if (slice == nullptr || slice->resolver == nullptr)
        return;
    ctx.resolver = slice->resolver;
    ctx.loadHazards = &slice->resolver->loadHazards();
    ctx.storeHazards = &slice->resolver->storeHazards();
}

/**
 * Advance one CTA under the cooperative barrier-phase scheduler until
 * it retires, faults, or reaches @p watermark executed instructions.
 * The MachineState cursor makes it resumable -- stopping at a watermark
 * and calling again continues exactly where execution left off, and a
 * snapshot of the state can be continued independently later.
 */
CtaStepStatus
stepCtaImpl(MachineState &ms, CtaContext &ctx, ExecEngine engine,
            std::uint64_t watermark)
{
    const std::uint32_t num_threads = ms.numThreads();
    while (true) {
        for (; ms.cursor < num_threads; ++ms.cursor) {
            const std::uint32_t tl =
                static_cast<std::uint32_t>(ms.cursor);
            if (ms.exited(tl) || ms.atBarrier(tl))
                continue;
            std::uint64_t max_steps = kNoWatermark;
            if (watermark != kNoWatermark) {
                if (ms.executedDynInstrs >= watermark)
                    return CtaStepStatus::Watermark;
                max_steps = watermark - ms.executedDynInstrs;
            }
            const std::uint64_t before = ms.icnt(tl);
            StopReason reason =
                engine == ExecEngine::Decoded
                    ? exec::runThreadDecoded(ms, tl, ctx, max_steps)
                    : exec::runThreadReference(ms, tl, ctx, max_steps);
            ms.executedDynInstrs += ms.icnt(tl) - before;
            switch (reason) {
              case StopReason::Exited:
                break;
              case StopReason::Barrier:
                ms.setAtBarrier(tl);
                break;
              case StopReason::Limit:
                // The cursor stays on this mid-slice thread; the next
                // stepCta call (or a resumed run) continues it.
                return CtaStepStatus::Watermark;
              case StopReason::Crashed:
                return CtaStepStatus::Crashed;
              case StopReason::Hung:
                return CtaStepStatus::Hung;
              case StopReason::Hazard:
                return CtaStepStatus::Hazard;
            }
        }

        // Phase complete: every thread has exited or arrived at the
        // barrier.  Retire the CTA once nobody is left, otherwise
        // release the barrier and start the next phase.
        bool all_exited = true;
        for (std::uint32_t t = 0; t < num_threads && all_exited; ++t)
            all_exited = ms.exited(t);
        if (all_exited)
            return CtaStepStatus::Retired;
        ms.clearBarriers();
        ms.cursor = 0;
    }
}

} // namespace

Executor::Executor(const Program &program, LaunchConfig config,
                   ExecEngine engine)
    : program_(program), config_(std::move(config)),
      engine_(engine)
{
    program_.validate();
    FSP_ASSERT(config_.grid.count() > 0 && config_.block.count() > 0,
               "empty launch");
    decoded_ = std::make_shared<const DecodedProgram>(program_, config_);
}

void
Executor::resetCtaState(MachineState &ms, std::uint64_t cta_linear) const
{
    FSP_ASSERT(cta_linear < config_.grid.count(), "CTA id outside grid");
    ms.configure(static_cast<std::uint32_t>(config_.block.count()),
                 decoded_->numRegs());
    ms.ctaLinear = cta_linear;
    ms.cursor = 0;
    ms.executedDynInstrs = 0;
    if (ms.smem.size() == config_.sharedBytes)
        ms.smem.clear();
    else
        ms.smem = SharedMemory(config_.sharedBytes);
}

MachineState
Executor::initialCtaState(std::uint64_t cta_linear) const
{
    MachineState ms;
    resetCtaState(ms, cta_linear);
    return ms;
}

CtaStepStatus
Executor::stepCta(MachineState &ms, GlobalMemory &gmem,
                  std::uint64_t watermark, FaultPlan *fault,
                  const CtaSlice *slice, std::string *diagnostic,
                  const ProtectionPlan *protection) const
{
    const Dim3 &grid = config_.grid;
    const std::uint64_t lin = ms.ctaLinear;
    const std::uint64_t plane =
        static_cast<std::uint64_t>(grid.x) * grid.y;

    CtaContext ctx{gmem, config_.params};
    ctx.smem = &ms.smem;
    ctx.prog = &program_;
    ctx.dec = decoded_.get();
    ctx.block = config_.block;
    ctx.grid = grid;
    ctx.blockThreads = config_.block.count();
    ctx.ctaidX = static_cast<std::uint32_t>(lin % grid.x);
    ctx.ctaidY = static_cast<std::uint32_t>((lin / grid.x) % grid.y);
    ctx.ctaidZ = static_cast<std::uint32_t>(lin / plane);
    ctx.budget = config_.maxDynInstrPerThread
                     ? config_.maxDynInstrPerThread
                     : exec::kDefaultBudget;
    ctx.fault = fault;
    ctx.protection = protection;
    bindSlice(ctx, slice);

    CtaStepStatus status = stepCtaImpl(ms, ctx, engine_, watermark);
    if (diagnostic)
        *diagnostic = ctx.diagnostic;
    return status;
}

RunResult
Executor::run(GlobalMemory &gmem, const TraceOptions *opts,
              FaultPlan *fault, const CtaSlice *slice,
              const StateSnapshot *resume,
              const ProtectionPlan *protection) const
{
    RunResult result;
    if (fault) {
        fault->applied = false;
        fault->appliedStatic = kNoStaticIndex;
        fault->detected = false;
        fault->detectedStatic = kNoStaticIndex;
        if (fault->kind == FaultKind::GlobalMemLaunch) {
            // A fault that predates the kernel: flip the byte in the
            // initial image, once, before any CTA runs.  Models of
            // this kind declare themselves full-grid-only, so resume
            // and slicing never see it.
            std::uint64_t byte = 0;
            AccessError err = gmem.load(fault->addr, 1, byte);
            if (err == AccessError::None) {
                err = gmem.store(fault->addr, 1,
                                 byte ^ (fault->mask & 0xFF));
            }
            if (err != AccessError::None) {
                std::ostringstream os;
                os << "launch-time global-memory fault flip at "
                      "unmapped 0x"
                   << std::hex << fault->addr << std::dec;
                result.status = RunStatus::Crashed;
                result.diagnostic = os.str();
                noteRun(result);
                return result;
            }
            fault->applied = true;
        }
    }

    const Dim3 &grid = config_.grid;
    const std::uint64_t block_threads = config_.block.count();
    const std::uint64_t total_threads = config_.threadCount();

    if (opts && opts->perThreadProfiles)
        result.trace.profiles.resize(total_threads);

    const bool want_footprints = opts && opts->ctaFootprints;
    std::vector<Interval> fp_reads, fp_writes;
    if (want_footprints)
        result.trace.ctaFootprints.resize(grid.count());

    // CtaRange ids are sorted/unique; walk them alongside the linear
    // CTA enumeration so skipped CTAs cost one comparison each and the
    // executed CTAs see exactly the state (ids, smem, thread numbers)
    // they would in a full-grid run.
    const std::vector<std::uint64_t> *slice_ctas =
        slice ? &slice->range.ctas : nullptr;
    std::size_t slice_pos = 0;

    const std::uint64_t start_cta = resume ? resume->ctaLinear() : 0;
    MachineState &ms = scratch_; // reused across CTAs and runs

    CtaContext ctx{gmem, config_.params};
    ctx.prog = &program_;
    ctx.dec = decoded_.get();
    ctx.block = config_.block;
    ctx.grid = grid;
    ctx.blockThreads = block_threads;
    ctx.budget = config_.maxDynInstrPerThread
                     ? config_.maxDynInstrPerThread
                     : exec::kDefaultBudget;
    ctx.opts = opts;
    ctx.fault = fault;
    ctx.protection = protection;
    ctx.trace = &result.trace;
    bindSlice(ctx, slice);

    std::uint64_t cta_linear = 0;
    for (std::uint32_t cz = 0; cz < grid.z; ++cz) {
        for (std::uint32_t cy = 0; cy < grid.y; ++cy) {
            for (std::uint32_t cx = 0; cx < grid.x; ++cx, ++cta_linear) {
                if (slice_ctas) {
                    if (slice_pos >= slice_ctas->size())
                        continue; // no selected CTAs remain
                    if ((*slice_ctas)[slice_pos] != cta_linear)
                        continue;
                    ++slice_pos;
                }
                if (cta_linear < start_cta)
                    continue; // resume: prefix is baked into gmem
                result.executedCtas++;
                if (want_footprints) {
                    fp_reads.clear();
                    fp_writes.clear();
                    ctx.fpReads = &fp_reads;
                    ctx.fpWrites = &fp_writes;
                }
                ctx.ctaidX = cx;
                ctx.ctaidY = cy;
                ctx.ctaidZ = cz;

                if (resume && cta_linear == start_cta) {
                    // Page-restore straight into the scratch state;
                    // the stored snapshot stays pristine.
                    result.restoredStateBytes +=
                        resume->restoreInto(ms);
                } else {
                    resetCtaState(ms, cta_linear);
                }
                ctx.smem = &ms.smem;

                CtaStepStatus status =
                    stepCtaImpl(ms, ctx, engine_, kNoWatermark);

                // Accumulate per-thread work whether the CTA retired or
                // aborted the launch (a faulting kernel dies; a hazard
                // makes the caller re-run full-grid).
                for (std::uint32_t t = 0; t < ms.numThreads(); ++t) {
                    result.totalDynInstrs += ms.icnt(t);
                    if (opts && opts->perThreadProfiles) {
                        auto &p = result.trace.profiles
                                      [ms.ctaLinear * block_threads + t];
                        p.iCnt = ms.icnt(t);
                        p.faultBits = ms.faultBits(t);
                    }
                }
                if (status != CtaStepStatus::Retired) {
                    result.status =
                        status == CtaStepStatus::Crashed
                            ? RunStatus::Crashed
                            : (status == CtaStepStatus::Hung
                                   ? RunStatus::Hung
                                   : RunStatus::SliceHazard);
                    result.diagnostic = ctx.diagnostic;
                    noteRun(result);
                    return result;
                }
                if (want_footprints) {
                    auto &fp = result.trace.ctaFootprints[cta_linear];
                    fp.reads = IntervalSet::fromUnsorted(fp_reads);
                    fp.writes = IntervalSet::fromUnsorted(fp_writes);
                }
            }
        }
    }

    noteRun(result);
    return result;
}

} // namespace fsp::sim
