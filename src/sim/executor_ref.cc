/**
 * @file
 * The reference interpreter engine: the original per-step instruction
 * walk, re-resolving operands from the assembler's Instruction
 * representation on every dynamic instruction.
 *
 * It is deliberately unoptimised -- its job is to be an obviously
 * faithful oracle for the decoded dispatch engine (executor.cc).  It
 * runs against the same SoA MachineState through the DecodedProgram's
 * dense register map, and shares every arithmetic, guard and fault-hook
 * helper, so any divergence the differential suite finds is in operand
 * resolution or dispatch, never in state layout or math.
 */

#include <sstream>

#include "sim/exec_impl.hh"

namespace fsp::sim::exec {

namespace {

/** Per-thread view the reference walk operates on. */
struct RefThread
{
    std::uint64_t *regs; ///< dense register slab (via regMap)
    std::uint8_t *ccs;
    std::uint64_t pc;
    std::uint64_t icnt;
    std::uint64_t faultBits;
    std::uint64_t globalId;
    std::uint32_t tidX, tidY, tidZ;
    bool exited = false;
};

/** Read a source operand as raw bits appropriate for @p type. */
inline std::uint64_t
readSrc(const RefThread &t, const CtaContext &ctx, const Operand &o,
        DataType type, const std::array<std::uint8_t, kNumGpRegs> &map)
{
    switch (o.kind) {
      case Operand::Kind::GpReg: {
        std::uint64_t raw =
            (o.reg == kZeroReg) ? 0 : t.regs[map[o.reg]];
        if (o.half == HalfSel::Lo)
            raw = raw & 0xFFFF;
        else if (o.half == HalfSel::Hi)
            raw = (raw >> 16) & 0xFFFF;
        if (o.negated) {
            if (type == DataType::F32)
                raw = fromF32(-asF32(raw));
            else if (type == DataType::F64)
                raw = fromF64(-asF64(raw));
            else
                raw = truncVal(0 - raw, typeBits(type));
        }
        return raw;
      }
      case Operand::Kind::PredReg:
        // Predicate as a data source (selp): true iff zero flag clear.
        return (t.ccs[o.reg] & CcZero) ? 0 : 1;
      case Operand::Kind::Discard:
        return 0;
      case Operand::Kind::Special:
        switch (o.special) {
          case SpecialReg::TidX: return t.tidX;
          case SpecialReg::TidY: return t.tidY;
          case SpecialReg::TidZ: return t.tidZ;
          case SpecialReg::NtidX: return ctx.block.x;
          case SpecialReg::NtidY: return ctx.block.y;
          case SpecialReg::NtidZ: return ctx.block.z;
          case SpecialReg::CtaidX: return ctx.ctaidX;
          case SpecialReg::CtaidY: return ctx.ctaidY;
          case SpecialReg::CtaidZ: return ctx.ctaidZ;
          case SpecialReg::NctaidX: return ctx.grid.x;
          case SpecialReg::NctaidY: return ctx.grid.y;
          case SpecialReg::NctaidZ: return ctx.grid.z;
        }
        panic("unreachable SpecialReg");
      case Operand::Kind::Imm:
        return o.imm;
      case Operand::Kind::MemRef:
      case Operand::Kind::None:
        panic("operand kind not readable as a value");
    }
    panic("unreachable Operand::Kind");
}

} // namespace

StopReason
runThreadReference(MachineState &ms, std::uint32_t tl, CtaContext &ctx,
                   std::uint64_t max_steps)
{
    const auto &code = ctx.prog->instructions();
    const std::size_t code_size = code.size();
    const auto &map = ctx.dec->regMap();

    RefThread t;
    t.regs = ms.regs(tl);
    t.ccs = ms.ccs(tl);
    t.pc = ms.pc(tl);
    t.icnt = ms.icnt(tl);
    t.faultBits = ms.faultBits(tl);
    t.globalId = ms.ctaLinear * ctx.blockThreads + tl;
    t.tidX = tl % ctx.block.x;
    t.tidY = (tl / ctx.block.x) % ctx.block.y;
    t.tidZ = tl / (ctx.block.x * ctx.block.y);

    // Write the cached scalars back on every way out of the loop.
    auto finish = [&](StopReason r) {
        ms.pc(tl) = t.pc;
        ms.icnt(tl) = t.icnt;
        ms.faultBits(tl) = t.faultBits;
        if (t.exited)
            ms.setExited(tl);
        return r;
    };

    std::vector<DynRecord> *dyn_trace = nullptr;
    if (ctx.trace && ctx.opts &&
        ctx.opts->traceThreads.count(t.globalId) > 0) {
        dyn_trace = &ctx.trace->dynTraces[t.globalId];
    }
    const bool record_values =
        dyn_trace != nullptr && ctx.opts->recordValues;

    const bool is_fault_thread =
        ctx.fault != nullptr && ctx.fault->thread == t.globalId;

    std::uint64_t steps = 0;
    while (true) {
        // Reach-time faults fire when the thread is about to execute
        // its target dynamic instruction (pre-fault execution is
        // bit-identical to golden, so a valid site always fires).
        if (is_fault_thread && !ctx.fault->applied &&
            t.icnt == ctx.fault->dynIndex) {
            StopReason halt;
            if (applyReachFault(ctx, t.pc, t.ccs, t.globalId, code_size,
                                halt)) {
                return finish(halt);
            }
        }
        if (t.pc >= code_size) {
            t.exited = true;
            return finish(StopReason::Exited);
        }
        if (steps >= max_steps)
            return finish(StopReason::Limit);
        if (t.icnt >= ctx.budget) {
            std::ostringstream os;
            os << "thread " << t.globalId << " exceeded budget of "
               << ctx.budget << " dynamic instructions";
            ctx.diagnostic = os.str();
            return finish(StopReason::Hung);
        }

        const Instruction &insn = code[t.pc];
        const std::uint64_t dyn_index = t.icnt;
        t.icnt++;
        steps++;

        const bool pass =
            guardCcPasses(insn.guard.cond, insn.guard.pred, t.ccs);
        std::uint16_t recorded_bits = 0;
        bool hit_barrier = false;

        if (pass) {
            switch (insn.op) {
              case Opcode::Nop:
              case Opcode::Ssy:
                t.pc++;
                break;

              case Opcode::Ret:
              case Opcode::Exit:
                t.exited = true;
                break;

              case Opcode::Bra:
                t.pc = static_cast<std::uint64_t>(insn.target);
                break;

              case Opcode::Bar:
                t.pc++;
                if (is_fault_thread &&
                    ctx.fault->kind == FaultKind::BarrierSkip &&
                    !ctx.fault->applied &&
                    dyn_index >= ctx.fault->dynIndex) {
                    // Corrupted barrier bookkeeping: the thread's
                    // arrival is lost, so it runs ahead into the next
                    // phase while the others rendezvous without it.
                    noteApplied(*ctx.fault,
                                static_cast<std::uint32_t>(
                                    &insn - code.data()));
                } else {
                    hit_barrier = true;
                }
                break;

              case Opcode::Ld:
              case Opcode::St: {
                const Operand &mem = insn.src[0];
                std::uint64_t base =
                    mem.memBase >= 0 &&
                            mem.memBase !=
                                static_cast<std::int32_t>(kZeroReg)
                        ? truncVal(t.regs[map[static_cast<unsigned>(
                                       mem.memBase)]],
                                   32)
                        : 0;
                std::uint64_t addr =
                    base + static_cast<std::uint64_t>(mem.memOffset);
                unsigned width = typeBits(insn.type) / 8;

                AccessError err;
                std::uint64_t value = 0;
                if (insn.op == Opcode::Ld) {
                    switch (insn.space) {
                      case MemSpace::Global:
                        err = ctx.gmem.load(addr, width, value);
                        break;
                      case MemSpace::Shared:
                        err = ctx.smem->load(addr, width, value);
                        break;
                      case MemSpace::Param:
                        err = ctx.params.load(addr, width, value);
                        break;
                      default:
                        panic("ld without address space");
                    }
                } else {
                    value = readSrc(t, ctx, insn.src[1], insn.type, map);
                    value = truncVal(value, typeBits(insn.type));
                    switch (insn.space) {
                      case MemSpace::Global:
                        err = ctx.gmem.store(addr, width, value);
                        break;
                      case MemSpace::Shared:
                        err = ctx.smem->store(addr, width, value);
                        break;
                      default:
                        panic("st without writable address space");
                    }
                }

                if (err != AccessError::None) {
                    std::ostringstream os;
                    os << "thread " << t.globalId << " "
                       << (insn.op == Opcode::Ld ? "load" : "store")
                       << " fault at " << spaceName(insn.space) << " 0x"
                       << std::hex << addr << std::dec << " ("
                       << (err == AccessError::Unmapped ? "unmapped"
                                                        : "misaligned")
                       << "): " << insn.text;
                    ctx.diagnostic = os.str();
                    return finish(StopReason::Crashed);
                }

                if (insn.space == MemSpace::Global) {
                    // Sliced-run escape: an access into a byte range
                    // other CTAs touch that the resolver could not
                    // answer -- abort so the injector falls back to a
                    // full-grid run.
                    const bool resolved =
                        insn.op == Opcode::Ld
                            ? sliceLoad(ctx, ms.ctaLinear, addr, width,
                                        value)
                            : sliceStore(ctx, ms.ctaLinear, addr, width);
                    if (!resolved) {
                        std::ostringstream os;
                        os << "thread " << t.globalId << " sliced-run "
                           << (insn.op == Opcode::Ld ? "load" : "store")
                           << " hazard at global 0x" << std::hex << addr
                           << std::dec << ": " << insn.text;
                        ctx.diagnostic = os.str();
                        return finish(StopReason::Hazard);
                    }
                    std::vector<Interval> *fp = insn.op == Opcode::Ld
                                                    ? ctx.fpReads
                                                    : ctx.fpWrites;
                    if (fp)
                        fp->push_back({addr, addr + width});
                }

                if (insn.op == Opcode::Ld) {
                    // Sign-extend signed loads into the register.
                    if (isSignedType(insn.type)) {
                        value = static_cast<std::uint64_t>(
                            signExt(value, typeBits(insn.type)));
                        value = truncVal(value, 64);
                    }
                    if (insn.dest.kind == Operand::Kind::GpReg &&
                        insn.dest.reg != kZeroReg) {
                        std::uint64_t &dst =
                            t.regs[map[insn.dest.reg]];
                        dst = value;
                        recorded_bits = static_cast<std::uint16_t>(
                            typeBits(insn.type));
                        if (is_fault_thread) {
                            applyDestFault(dst, ctx, dyn_index,
                                           recorded_bits,
                                           static_cast<std::uint32_t>(
                                               &insn - code.data()));
                        }
                    }
                }
                t.pc++;
                break;
              }

              default: {
                // ALU / SFU / compare / conversion path.
                std::uint64_t result;
                if (insn.op == Opcode::Cvt) {
                    std::uint64_t a =
                        readSrc(t, ctx, insn.src[0], insn.stype, map);
                    result = evalCvtTyped(insn.stype, insn.type, a);
                } else if (insn.op == Opcode::Set ||
                           insn.op == Opcode::Setp) {
                    std::uint64_t a =
                        readSrc(t, ctx, insn.src[0], insn.stype, map);
                    std::uint64_t b =
                        readSrc(t, ctx, insn.src[1], insn.stype, map);
                    bool r = compareValues(insn.cmp, a, b, insn.stype);
                    unsigned dbits = insn.type == DataType::Pred
                                         ? 32
                                         : typeBits(insn.type);
                    result = r ? truncVal(~std::uint64_t{0}, dbits) : 0;
                } else if (insn.op == Opcode::Selp) {
                    std::uint64_t a =
                        readSrc(t, ctx, insn.src[0], insn.type, map);
                    std::uint64_t b =
                        readSrc(t, ctx, insn.src[1], insn.type, map);
                    std::uint64_t cnd =
                        readSrc(t, ctx, insn.src[2], DataType::U32, map);
                    result = cnd ? truncVal(a, typeBits(insn.type))
                                 : truncVal(b, typeBits(insn.type));
                } else {
                    unsigned n = opcodeSrcCount(insn.op);
                    std::uint64_t a =
                        readSrc(t, ctx, insn.src[0], insn.type, map);
                    std::uint64_t b =
                        n > 1 ? readSrc(t, ctx, insn.src[1], insn.type,
                                        map)
                              : 0;
                    std::uint64_t c =
                        n > 2 ? readSrc(t, ctx, insn.src[2], insn.type,
                                        map)
                              : 0;
                    result = evalAluOp(insn.op, insn.type, a, b, c);
                }

                // Writeback: primary dest is either a GPR value or a
                // 4-bit CC register (with an optional data side-effect
                // through dest2, PTXPlus "$p0|$r1" style).
                if (insn.dest.kind == Operand::Kind::PredReg) {
                    DataType cc_type =
                        insn.op == Opcode::Set || insn.op == Opcode::Setp
                            ? (insn.type == DataType::Pred ? DataType::U32
                                                           : insn.type)
                            : insn.type;
                    t.ccs[insn.dest.reg] = ccFromValue(result, cc_type);
                    recorded_bits = typeBits(DataType::Pred);
                    if (is_fault_thread) {
                        std::uint64_t cc = t.ccs[insn.dest.reg];
                        if (applyDestFault(cc, ctx, dyn_index,
                                           recorded_bits,
                                           static_cast<std::uint32_t>(
                                               &insn - code.data()))) {
                            t.ccs[insn.dest.reg] =
                                static_cast<std::uint8_t>(cc);
                        }
                    }
                    if (insn.dest2.kind == Operand::Kind::GpReg &&
                        insn.dest2.reg != kZeroReg) {
                        t.regs[map[insn.dest2.reg]] = result;
                    }
                } else if (insn.dest.kind == Operand::Kind::GpReg &&
                           insn.dest.reg != kZeroReg) {
                    std::uint64_t &dst = t.regs[map[insn.dest.reg]];
                    dst = result;
                    recorded_bits = static_cast<std::uint16_t>(
                        insn.op == Opcode::MulWide ||
                                insn.op == Opcode::MadWide
                            ? 2 * typeBits(insn.type)
                            : typeBits(insn.type));
                    if (is_fault_thread) {
                        applyDestFault(dst, ctx, dyn_index,
                                       recorded_bits,
                                       static_cast<std::uint32_t>(
                                           &insn - code.data()));
                    }
                }
                t.pc++;
                break;
              }
            }
        } else {
            // Guard failed: the instruction issues (counted in iCnt, as
            // in the PTXPlus trace model) but performs no writeback, no
            // branch, and no barrier arrival.
            t.pc++;
        }

        t.faultBits += recorded_bits;
        if (dyn_trace) {
            DynRecord record{
                static_cast<std::uint32_t>(&insn - code.data()),
                recorded_bits};
            if (record_values) {
                // Mirror of the decoded engine's makeDynRecord: guard
                // outcome plus the post-writeback destination value.
                record.flags = pass ? DynRecord::kExecuted : 0;
                if (pass && recorded_bits != 0) {
                    const std::uint64_t value =
                        insn.dest.kind == Operand::Kind::PredReg
                            ? t.ccs[insn.dest.reg]
                            : t.regs[map[insn.dest.reg]];
                    record.valueLo = static_cast<std::uint32_t>(value);
                    record.valueHi =
                        static_cast<std::uint32_t>(value >> 32);
                }
            }
            dyn_trace->push_back(record);
        }

        if (hit_barrier)
            return finish(StopReason::Barrier);
        if (t.exited)
            return finish(StopReason::Exited);
    }
}

} // namespace fsp::sim::exec
