/**
 * @file
 * Heterogeneous SoC workloads:
 *  - host driver programs that stage inputs in DRAM, program an
 *    accelerator's MMRs, sleep on the completion interrupt (WFI), and
 *    copy the DMA'd results to OUTPUT (paper Fig. 1 flow); and
 *  - CPU-side implementations of GEMM / BFS / FFT / MD-KNN at the same
 *    problem sizes, for the Fig. 16 platform comparison.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "accel/designs/designs.hh"
#include "common/memmap.hh"
#include "common/rng.hh"
#include "workloads/workloads.hh"

namespace marvel::workloads
{

using accel::designs::DesignSizes;
using mir::FunctionBuilder;
using mir::ModuleBuilder;
using mir::VReg;

namespace
{

void
putF64(std::vector<u8> &buf, std::size_t idx, double v)
{
    std::memcpy(buf.data() + idx * 8, &v, 8);
}

void
putU64(std::vector<u8> &buf, std::size_t idx, u64 v)
{
    std::memcpy(buf.data() + idx * 8, &v, 8);
}

/** Input staging buffers for one design (DRAM side of the DMAs). */
struct DesignData
{
    /** Buffers in MMR-arg order: in buffers then the out buffer(s).
     *  A deque, so a buffer filled through the pointer inBuf/outBuf
     *  return stays put while later buffers are appended. */
    std::deque<std::pair<std::string, std::vector<u8>>> buffers;
    /** Number of MMR args that are inputs (rest are outputs). */
    unsigned numIn = 0;
    /** Total bytes DMA'd out (copied to OUTPUT by the driver). */
    u32 outBytes = 0;
};

DesignData
dataFor(const std::string &name)
{
    // The systolic GEMM consumes the dataflow GEMM's data verbatim
    // (same seed, same buffers) so the two engines run a
    // bit-identical workload and their outputs are comparable.
    if (name == "gemm_systolic")
        return dataFor("gemm");
    Rng rng(detail::dataSeed("accel-" + name));
    DesignData d;
    auto inBuf = [&](const char *bufName, std::size_t bytes) {
        d.buffers.emplace_back(bufName, std::vector<u8>(bytes, 0));
        ++d.numIn;
        return &d.buffers.back().second;
    };
    auto outBuf = [&](const char *bufName, std::size_t bytes) {
        d.buffers.emplace_back(bufName, std::vector<u8>(bytes, 0));
        d.outBytes += static_cast<u32>(bytes);
        return &d.buffers.back().second;
    };

    if (name == "bfs") {
        const u32 n = DesignSizes::bfsNodes;
        const u32 e = DesignSizes::bfsEdges;
        auto *nodes = inBuf("nodes", n * 8);
        auto *edges = inBuf("edges", e * 8);
        // Node i owns edges [8i, 8i+8); edge targets keep the graph
        // connected (i+1 ring edge) plus random links.
        for (u32 i = 0; i < n; ++i) {
            const u64 begin = 8ull * i;
            const u64 end = begin + 8;
            putU64(*nodes, i, (begin << 32) | end);
        }
        for (u32 i = 0; i < n; ++i) {
            putU64(*edges, 8 * i, (i + 1) % n);
            for (u32 k = 1; k < 8; ++k)
                putU64(*edges, 8 * i + k, rng.below(n));
        }
        outBuf("levels", n * 8);
        return d;
    }
    if (name == "fft") {
        const u32 n = DesignSizes::fftPoints;
        auto *re = inBuf("real", n * 8);
        auto *im = inBuf("imag", n * 8);
        for (u32 i = 0; i < n; ++i) {
            putF64(*re, i, std::sin(0.1 * i) + 0.25 * std::sin(0.7 * i));
            putF64(*im, i, 0.0);
        }
        auto *twr = inBuf("twid_r", (n / 2) * 8);
        auto *twi = inBuf("twid_i", (n / 2) * 8);
        for (u32 i = 0; i < n / 2; ++i) {
            const double angle = -2.0 * M_PI * i / n;
            putF64(*twr, i, std::cos(angle));
            putF64(*twi, i, std::sin(angle));
        }
        outBuf("out_real", n * 8);
        outBuf("out_imag", n * 8);
        return d;
    }
    if (name == "gemm") {
        const u32 dim = DesignSizes::gemmDim;
        auto *a = inBuf("mat_a", dim * dim * 8);
        auto *b = inBuf("mat_b", dim * dim * 8);
        for (u32 i = 0; i < dim * dim; ++i) {
            putF64(*a, i, rng.uniform() - 0.5);
            putF64(*b, i, rng.uniform() - 0.5);
        }
        outBuf("mat_c", dim * dim * 8);
        return d;
    }
    if (name == "md_knn") {
        const u32 atoms = DesignSizes::mdAtoms;
        const u32 nn = DesignSizes::mdNeighbours;
        auto *nl = inBuf("neighbours", atoms * nn * 8);
        for (u32 i = 0; i < atoms; ++i)
            for (u32 k = 0; k < nn; ++k) {
                u64 j = rng.below(atoms);
                if (j == i)
                    j = (j + 1) % atoms;
                putU64(*nl, i * nn + k, j);
            }
        const char *axes[3] = {"pos_x", "pos_y", "pos_z"};
        for (auto *axis : axes) {
            auto *p = inBuf(axis, atoms * 8);
            for (u32 i = 0; i < atoms; ++i)
                putF64(*p, i, 0.5 + i * 0.37 + rng.uniform());
        }
        outBuf("force_x", atoms * 8);
        return d;
    }
    if (name == "mergesort") {
        const u32 n = DesignSizes::sortLen;
        auto *main = inBuf("unsorted", n * 8);
        for (u32 i = 0; i < n; ++i)
            putU64(*main, i, rng());
        outBuf("sorted", n * 8);
        return d;
    }
    if (name == "spmv") {
        const u32 nnz = DesignSizes::spmvNnz;
        const u32 rows = DesignSizes::spmvRows;
        auto *val = inBuf("val", 13328);
        auto *cols = inBuf("cols", 6664);
        auto *rowd = inBuf("rowdelim", 1032);
        auto *vec = inBuf("vec", 1024);
        for (u32 i = 0; i < nnz; ++i) {
            putF64(*val, i, rng.uniform() * 2.0 - 1.0);
            const u32 c = static_cast<u32>(rng.below(rows));
            std::memcpy(cols->data() + i * 4, &c, 4);
        }
        // Spread nnz roughly evenly over rows.
        const u32 perRow = nnz / rows;
        u64 cursor = 0;
        for (u32 r = 0; r <= rows; ++r) {
            putU64(*rowd, r, cursor);
            cursor = std::min<u64>(nnz, cursor + perRow +
                                            (r % 3 == 0 ? 1 : 0));
        }
        putU64(*rowd, rows, nnz);
        for (u32 i = 0; i < rows; ++i)
            putF64(*vec, i, rng.uniform());
        outBuf("spmv_out", 1024);
        return d;
    }
    if (name == "stencil2d") {
        const u32 cells = DesignSizes::st2Rows * DesignSizes::st2Cols;
        auto *orig = inBuf("orig", cells * 8);
        for (u32 i = 0; i < cells; ++i)
            putF64(*orig, i, rng.uniform() * 10.0);
        auto *filt = inBuf("filter", 360);
        for (u32 k = 0; k < 9; ++k)
            putF64(*filt, k, (k == 4 ? 4.0 : -0.5));
        outBuf("sol", cells * 8);
        return d;
    }
    if (name == "stencil3d") {
        const u32 cells =
            DesignSizes::st3X * DesignSizes::st3Y * DesignSizes::st3Z;
        auto *orig = inBuf("orig", cells * 8);
        for (u32 i = 0; i < cells; ++i)
            putF64(*orig, i, rng.uniform() * 4.0);
        auto *cvar = inBuf("c_var", 8);
        const i32 c0 = 2;
        const i32 c1 = -1;
        std::memcpy(cvar->data(), &c0, 4);
        std::memcpy(cvar->data() + 4, &c1, 4);
        outBuf("sol", cells * 8);
        return d;
    }
    fatal("accel driver: unknown design '%s'", name.c_str());
}

} // namespace

double
designOpsPerRun(const std::string &name)
{
    if (name == "gemm" || name == "gemm_systolic") {
        const double n = DesignSizes::gemmDim;
        return 2.0 * n * n * n;
    }
    if (name == "bfs")
        return DesignSizes::bfsEdges;
    if (name == "fft") {
        const double n = DesignSizes::fftPoints;
        return 5.0 * n * std::log2(n);
    }
    if (name == "md_knn")
        return 16.0 * DesignSizes::mdAtoms * DesignSizes::mdNeighbours;
    if (name == "mergesort")
        return DesignSizes::sortLen * std::log2(DesignSizes::sortLen);
    if (name == "spmv")
        return 2.0 * DesignSizes::spmvNnz;
    if (name == "stencil2d")
        return 18.0 * DesignSizes::st2Rows * DesignSizes::st2Cols;
    if (name == "stencil3d")
        return 8.0 * DesignSizes::st3X * DesignSizes::st3Y *
               DesignSizes::st3Z;
    fatal("designOpsPerRun: unknown design '%s'", name.c_str());
}

Workload
accelDriver(const std::string &designName, unsigned unitIdx)
{
    DesignData data = dataFor(designName);
    ModuleBuilder mb;
    for (auto &[bufName, bytes] : data.buffers)
        mb.globalInit(bufName, bytes, 64);

    FunctionBuilder fb = mb.func("main", {}, true);
    const Addr mmr = kAccelMmioBase + unitIdx * kAccelMmioStride;
    VReg mmrBase = fb.constI(static_cast<i64>(mmr));

    fb.checkpoint();
    // Program the DMA source/destination MMR args.
    for (std::size_t k = 0; k < data.buffers.size(); ++k) {
        VReg addr = fb.gaddr(data.buffers[k].first);
        fb.st8(mmrBase, addr,
               static_cast<i64>(accel::kMmrArg0 + 8 * k));
    }
    // Start the accelerator and sleep until its interrupt.
    fb.st8(mmrBase, fb.constI(1),
           static_cast<i64>(accel::kMmrCtrl));
    fb.waitIrq();
    // Reading STATUS acknowledges the interrupt.
    VReg status =
        fb.ld8(mmrBase, static_cast<i64>(accel::kMmrStatus));
    fb.switchCpu();

    // Copy the DMA'd output buffers to the OUTPUT window.
    VReg out = fb.constI(static_cast<i64>(kOutputBase));
    i64 outOff = 0;
    for (std::size_t k = data.numIn; k < data.buffers.size(); ++k) {
        const i64 len =
            static_cast<i64>(data.buffers[k].second.size());
        VReg src = fb.gaddr(data.buffers[k].first);
        VReg dstBase = fb.add(out, fb.constI(outOff));
        auto copy = fb.beginLoop(fb.constI(0), fb.constI(len));
        {
            VReg v = fb.ld8(fb.add(src, copy.idx));
            fb.st8(fb.add(dstBase, copy.idx), v);
        }
        fb.endLoop(copy, 8);
        outOff += len;
    }
    fb.ret(status);
    mb.setEntry("main");
    mir::verify(mb.module());
    return {designName + "-driver", mb.module(),
            designOpsPerRun(designName)};
}

// =====================================================================
// CPU-side implementations for the Fig. 16 comparison.
// =====================================================================

Workload
cpuVersionOf(const std::string &designName)
{
    DesignData data = dataFor(designName);
    ModuleBuilder mb;
    for (auto &[bufName, bytes] : data.buffers)
        mb.globalInit(bufName, bytes, 64);

    FunctionBuilder fb = mb.func("main", {}, true);
    VReg out = fb.constI(static_cast<i64>(kOutputBase));

    if (designName == "gemm") {
        const u32 dim = DesignSizes::gemmDim;
        VReg a = fb.gaddr("mat_a");
        VReg b = fb.gaddr("mat_b");
        detail::emitWarmup(fb, a, static_cast<i64>(dim) * dim * 8);
        fb.checkpoint();
        VReg dimReg = fb.constI(dim);
        auto iLoop = fb.beginLoop(fb.constI(0), dimReg);
        {
            VReg rowOff = fb.shlI(fb.mulI(iLoop.idx, dim), 3);
            auto jLoop = fb.beginLoop(fb.constI(0), dimReg);
            {
                VReg sum = fb.constF(0.0);
                auto kLoop = fb.beginLoop(fb.constI(0), dimReg);
                {
                    VReg av = fb.ldf8(fb.add(
                        a, fb.add(rowOff, fb.shlI(kLoop.idx, 3))));
                    VReg bv = fb.ldf8(fb.add(
                        b,
                        fb.add(fb.shlI(fb.mulI(kLoop.idx, dim), 3),
                               fb.shlI(jLoop.idx, 3))));
                    fb.assign(sum, fb.fadd(sum, fb.fmul(av, bv)));
                }
                fb.endLoop(kLoop);
                fb.stf8(fb.add(out,
                               fb.add(rowOff,
                                      fb.shlI(jLoop.idx, 3))),
                        sum);
            }
            fb.endLoop(jLoop);
        }
        fb.endLoop(iLoop);
        fb.switchCpu();
        fb.ret(fb.constI(0));
    } else if (designName == "bfs") {
        const u32 n = DesignSizes::bfsNodes;
        VReg nodes = fb.gaddr("nodes");
        VReg edges = fb.gaddr("edges");
        mb.global("levels_cpu", n * 8);
        mb.global("queue_cpu", n * 8 * 8);
        VReg levels = fb.gaddr("levels_cpu");
        VReg queue = fb.gaddr("queue_cpu");
        detail::emitWarmup(fb, nodes, n * 8);
        fb.checkpoint();
        VReg zero = fb.constI(0);
        VReg minus1 = fb.constI(-1);
        auto init = fb.beginLoop(fb.constI(0), fb.constI(n));
        fb.st8(fb.add(levels, fb.shlI(init.idx, 3)), minus1);
        fb.endLoop(init);
        fb.st8(levels, zero);
        fb.st8(queue, zero);
        VReg tail = fb.constI(1);
        auto walk = fb.beginLoop(fb.constI(0), tail);
        {
            VReg node =
                fb.ld8(fb.add(queue, fb.shlI(walk.idx, 3)));
            VReg word =
                fb.ld8(fb.add(nodes, fb.shlI(node, 3)));
            VReg begin = fb.shr(word, fb.constI(32));
            VReg end = fb.band(word, fb.constI(0xffffffff));
            VReg next = fb.addI(
                fb.ld8(fb.add(levels, fb.shlI(node, 3))), 1);
            auto inner = fb.beginLoop(begin, end);
            {
                VReg target = fb.ld8(
                    fb.add(edges, fb.shlI(inner.idx, 3)));
                VReg lAddr =
                    fb.add(levels, fb.shlI(target, 3));
                VReg lv = fb.ld8(lAddr);
                auto visit = fb.newBlock();
                auto skip = fb.newBlock();
                fb.br(fb.cmpLt(lv, zero), visit, skip);
                fb.setBlock(visit);
                fb.st8(lAddr, next);
                fb.st8(fb.add(queue, fb.shlI(tail, 3)), target);
                fb.assign(tail, fb.addI(tail, 1));
                fb.jmp(skip);
                fb.setBlock(skip);
            }
            fb.endLoop(inner);
        }
        fb.endLoop(walk);
        fb.switchCpu();
        auto copy = fb.beginLoop(fb.constI(0), fb.constI(n));
        {
            VReg off = fb.shlI(copy.idx, 3);
            fb.st8(fb.add(out, off),
                   fb.ld8(fb.add(levels, off)));
        }
        fb.endLoop(copy);
        fb.ret(tail);
    } else if (designName == "fft") {
        const u32 n = DesignSizes::fftPoints;
        VReg realBase = fb.gaddr("real");
        VReg imagBase = fb.gaddr("imag");
        VReg twrBase = fb.gaddr("twid_r");
        VReg twiBase = fb.gaddr("twid_i");
        detail::emitWarmup(fb, realBase, n * 8);
        fb.checkpoint();
        VReg nReg = fb.constI(n);
        VReg span = fb.constI(n / 2);
        auto spanHead = fb.newBlock();
        auto spanBody = fb.newBlock();
        auto spanExit = fb.newBlock();
        fb.jmp(spanHead);
        fb.setBlock(spanHead);
        fb.br(fb.cmpLt(fb.constI(0), span), spanBody, spanExit);
        fb.setBlock(spanBody);
        {
            VReg odd = fb.mov(span);
            auto oddHead = fb.newBlock();
            auto oddBody = fb.newBlock();
            auto oddExit = fb.newBlock();
            fb.jmp(oddHead);
            fb.setBlock(oddHead);
            fb.br(fb.cmpLt(odd, nReg), oddBody, oddExit);
            fb.setBlock(oddBody);
            {
                VReg even = fb.bxor(odd, span);
                VReg offE = fb.shlI(even, 3);
                VReg offO = fb.shlI(odd, 3);
                VReg er = fb.ldf8(fb.add(realBase, offE));
                VReg orv = fb.ldf8(fb.add(realBase, offO));
                VReg ei = fb.ldf8(fb.add(imagBase, offE));
                VReg oi = fb.ldf8(fb.add(imagBase, offO));
                fb.stf8(fb.add(realBase, offE), fb.fadd(er, orv));
                fb.stf8(fb.add(imagBase, offE), fb.fadd(ei, oi));
                VReg difR = fb.fsub(er, orv);
                VReg difI = fb.fsub(ei, oi);
                VReg mask = fb.addI(span, -1);
                VReg tidx =
                    fb.mul(fb.band(even, mask),
                           fb.div(fb.constI(n / 2), span));
                VReg toff = fb.shlI(tidx, 3);
                VReg wr = fb.ldf8(fb.add(twrBase, toff));
                VReg wi = fb.ldf8(fb.add(twiBase, toff));
                fb.stf8(fb.add(realBase, offO),
                        fb.fsub(fb.fmul(wr, difR),
                                fb.fmul(wi, difI)));
                fb.stf8(fb.add(imagBase, offO),
                        fb.fadd(fb.fmul(wr, difI),
                                fb.fmul(wi, difR)));
            }
            fb.assign(odd, fb.bor(fb.addI(odd, 1), span));
            fb.jmp(oddHead);
            fb.setBlock(oddExit);
        }
        fb.assign(span, fb.shr(span, fb.constI(1)));
        fb.jmp(spanHead);
        fb.setBlock(spanExit);
        fb.switchCpu();
        auto copy = fb.beginLoop(fb.constI(0), nReg);
        {
            VReg off = fb.shlI(copy.idx, 3);
            fb.stf8(fb.add(out, off),
                    fb.ldf8(fb.add(realBase, off)));
            fb.stf8(fb.add(fb.add(out, fb.constI(n * 8)), off),
                    fb.ldf8(fb.add(imagBase, off)));
        }
        fb.endLoop(copy);
        fb.ret(fb.constI(0));
    } else if (designName == "md_knn") {
        const u32 atoms = DesignSizes::mdAtoms;
        const u32 nn = DesignSizes::mdNeighbours;
        VReg nl = fb.gaddr("neighbours");
        VReg px = fb.gaddr("pos_x");
        VReg py = fb.gaddr("pos_y");
        VReg pz = fb.gaddr("pos_z");
        detail::emitWarmup(fb, nl, static_cast<i64>(atoms) * nn * 8);
        fb.checkpoint();
        auto iLoop = fb.beginLoop(fb.constI(0), fb.constI(atoms));
        {
            VReg iOff = fb.shlI(iLoop.idx, 3);
            VReg xi = fb.ldf8(fb.add(px, iOff));
            VReg yi = fb.ldf8(fb.add(py, iOff));
            VReg zi = fb.ldf8(fb.add(pz, iOff));
            VReg fx = fb.constF(0.0);
            auto kLoop = fb.beginLoop(fb.constI(0), fb.constI(nn));
            {
                VReg slot =
                    fb.add(fb.mulI(iLoop.idx, nn), kLoop.idx);
                VReg j = fb.ld8(fb.add(nl, fb.shlI(slot, 3)));
                VReg jOff = fb.shlI(j, 3);
                VReg dx = fb.fsub(xi, fb.ldf8(fb.add(px, jOff)));
                VReg dy = fb.fsub(yi, fb.ldf8(fb.add(py, jOff)));
                VReg dz = fb.fsub(zi, fb.ldf8(fb.add(pz, jOff)));
                VReg r2 = fb.fadd(
                    fb.fadd(fb.fmul(dx, dx), fb.fmul(dy, dy)),
                    fb.fmul(dz, dz));
                VReg inv2 = fb.fdiv(fb.constF(1.0), r2);
                VReg inv6 =
                    fb.fmul(fb.fmul(inv2, inv2), inv2);
                VReg pot = fb.fmul(
                    inv6, fb.fsub(fb.fmul(fb.constF(1.5), inv6),
                                  fb.constF(2.0)));
                fb.assign(fx, fb.fadd(fx, fb.fmul(pot, dx)));
            }
            fb.endLoop(kLoop);
            fb.stf8(fb.add(out, iOff), fx);
        }
        fb.endLoop(iLoop);
        fb.switchCpu();
        fb.ret(fb.constI(0));
    } else {
        fatal("cpuVersionOf: unsupported design '%s'",
              designName.c_str());
    }
    mb.setEntry("main");
    mir::verify(mb.module());
    return {designName + "-cpu", mb.module(),
            designOpsPerRun(designName)};
}

} // namespace marvel::workloads
