#include "fi/fault.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/log.hh"

namespace marvel::fi
{

const char *
faultModelName(FaultModel model)
{
    switch (model) {
      case FaultModel::Transient: return "transient";
      case FaultModel::StuckAt0: return "stuck-at-0";
      case FaultModel::StuckAt1: return "stuck-at-1";
    }
    return "?";
}

const char *
targetIdName(TargetId id)
{
    switch (id) {
      case TargetId::PrfInt: return "prf-int";
      case TargetId::PrfFp: return "prf-fp";
      case TargetId::L1I: return "l1i";
      case TargetId::L1D: return "l1d";
      case TargetId::L2: return "l2";
      case TargetId::LoadQueue: return "lq";
      case TargetId::StoreQueue: return "sq";
      case TargetId::Rob: return "rob";
      case TargetId::RenameMap: return "rename";
      case TargetId::Btb: return "btb";
      case TargetId::AccelMem: return "accel-mem";
    }
    return "?";
}

namespace
{

TargetId
targetIdFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(TargetId::AccelMem); ++i) {
        const TargetId id = static_cast<TargetId>(i);
        if (name == targetIdName(id))
            return id;
    }
    fatal("fault: unknown target '%s'", name.c_str());
}

} // namespace

FaultModel
faultModelFromName(const std::string &name)
{
    for (int i = 0; i <= static_cast<int>(FaultModel::StuckAt1); ++i) {
        const FaultModel m = static_cast<FaultModel>(i);
        if (name == faultModelName(m))
            return m;
    }
    fatal("fault: unknown model '%s'", name.c_str());
}

std::string
FaultMask::toString() const
{
    std::string out;
    for (const FaultSpec &f : faults) {
        if (!out.empty())
            out += "; ";
        out += strfmt("%s accel=%u mem=%u entry=%u bit=%u model=%s "
                      "cycle=%llu",
                      targetIdName(f.target.id), f.target.accelIdx,
                      f.target.memIdx, f.entry, f.bit,
                      faultModelName(f.model),
                      static_cast<unsigned long long>(f.injectCycle));
    }
    return out;
}

FaultMask
FaultMask::parse(const std::string &text)
{
    FaultMask mask;
    std::istringstream in(text);
    std::string part;
    while (std::getline(in, part, ';')) {
        // Trim.
        std::size_t b = part.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        part = part.substr(b);
        std::istringstream ps(part);
        std::string targetName;
        ps >> targetName;
        FaultSpec f;
        f.target.id = targetIdFromName(targetName);
        std::string kv;
        while (ps >> kv) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                fatal("fault mask: bad token '%s'", kv.c_str());
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "accel")
                f.target.accelIdx =
                    static_cast<u8>(std::stoul(value));
            else if (key == "mem")
                f.target.memIdx = static_cast<u8>(std::stoul(value));
            else if (key == "entry")
                f.entry = static_cast<u32>(std::stoul(value));
            else if (key == "bit")
                f.bit = static_cast<u32>(std::stoul(value));
            else if (key == "model")
                f.model = faultModelFromName(value);
            else if (key == "cycle")
                f.injectCycle = std::stoull(value);
            else
                fatal("fault mask: unknown key '%s'", key.c_str());
        }
        mask.faults.push_back(f);
    }
    return mask;
}

FaultMask
adjacentBurst(Rng &rng, const TargetRef &target,
              const TargetGeometry &geometry, Cycle windowCycles,
              unsigned burstLength)
{
    FaultMask mask;
    FaultSpec first = randomFault(rng, target, geometry, windowCycles,
                                  FaultModel::Transient);
    for (unsigned i = 0; i < burstLength; ++i) {
        FaultSpec f = first;
        f.bit = (first.bit + i) % geometry.bitsPerEntry;
        mask.faults.push_back(f);
    }
    return mask;
}

FaultMask
scatteredMultiBit(Rng &rng, const TargetRef &target,
                  const TargetGeometry &geometry, Cycle windowCycles,
                  unsigned count)
{
    FaultMask mask;
    const Cycle when =
        windowCycles > 0 ? rng.below(windowCycles) : 0;
    for (unsigned i = 0; i < count; ++i) {
        FaultSpec f = randomFault(rng, target, geometry, windowCycles,
                                  FaultModel::Transient);
        f.injectCycle = when;
        mask.faults.push_back(f);
    }
    return mask;
}

FaultMask
multiStructure(Rng &rng,
               const std::vector<std::pair<TargetRef, TargetGeometry>>
                   &targets,
               Cycle windowCycles)
{
    FaultMask mask;
    for (const auto &[ref, geometry] : targets)
        mask.faults.push_back(randomFault(
            rng, ref, geometry, windowCycles,
            FaultModel::Transient));
    return mask;
}

FaultSpec
randomFault(Rng &rng, const TargetRef &target,
            const TargetGeometry &geometry, Cycle windowCycles,
            FaultModel model)
{
    if (geometry.entries == 0 || geometry.bitsPerEntry == 0)
        fatal("randomFault: empty target geometry");
    FaultSpec f;
    f.target = target;
    f.entry = static_cast<u32>(rng.below(geometry.entries));
    f.bit = static_cast<u32>(rng.below(geometry.bitsPerEntry));
    f.model = model;
    f.injectCycle =
        model == FaultModel::Transient && windowCycles > 0
            ? rng.below(windowCycles)
            : 0;
    return f;
}

} // namespace marvel::fi
