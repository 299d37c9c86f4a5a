#!/usr/bin/env python3
"""Stack-sample one process with ptrace and print where its time goes.

    profile_sample.py [--hz 400] [--top 30] [--under <function>] -- <exe> [args...]

Starts <exe>, seizes it, and every 1/hz seconds interrupts the main thread,
reads RIP and walks the RBP frame chain out of /proc/<pid>/mem. That needs a
binary built with `-C force-frame-pointers=yes` (and symbols: `-g` or just an
unstripped build). Addresses are resolved against `nm -C -n <exe>`. Prints,
per function, self % (leaf of the sample) and inclusive % (anywhere on the
stack, once per sample), and self % summed per crate. With --under, every
table counts only the samples whose stack holds that function (its name as
the tables print it), and the percentages are of those samples. x86-64 Linux
only; the tracee's stdout goes to stderr so the tables are all that is on
stdout.
"""
import bisect
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT, PTRACE_GETREGS, PTRACE_SEIZE, PTRACE_INTERRUPT = 7, 12, 0x4206, 0x4207
RBP, RIP = 4, 16  # indices into x86-64 user_regs_struct (27 × u64)
MAX_FRAMES = 128

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) < 0:
        raise OSError(ctypes.get_errno(), f"ptrace({request:#x})")


def symbols(exe):
    """Sorted (address, name) of the text symbols, Rust hash suffix removed."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", exe],
                         check=True, capture_output=True, text=True).stdout
    table = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            table.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
    return table


def mappings(pid):
    """(start, end, file offset, path) of every mapping of the tracee."""
    out = []
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            out.append((start, end, int(fields[2], 16), fields[5] if len(fields) > 5 else "[anon]"))
    return out


def sample(pid, mem, regs):
    """The tracee's call stack, innermost first, as runtime addresses."""
    ptrace(PTRACE_GETREGS, pid, regs)
    stack, frame = [regs[RIP]], regs[RBP]
    while 0 < frame < 1 << 47 and len(stack) < MAX_FRAMES:  # libc may use rbp as data
        try:
            parent, ret = struct.unpack("<QQ", os.pread(mem, 16, frame))
        except OSError:
            break
        if ret == 0 or parent <= frame:  # chain must climb towards the stack base
            break
        stack.append(ret - 1)  # inside the call instruction, not after it
        frame = parent
    return stack


def main():
    # A reader that closes stdout early (`| head`) ends this process the way
    # it ends any filter, by SIGPIPE, not by a BrokenPipeError traceback.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cmd = argv[:split], argv[split + 1:]
    hz = float(opts[opts.index("--hz") + 1]) if "--hz" in opts else 400.0
    top = int(opts[opts.index("--top") + 1]) if "--top" in opts else 30
    under = opts[opts.index("--under") + 1] if "--under" in opts else None

    syms = symbols(cmd[0])
    addrs = [a for a, _ in syms]
    child = subprocess.Popen(cmd, stdout=sys.stderr)
    pid = child.pid
    time.sleep(0.1)  # let exec and the loader finish before seizing and reading maps
    ptrace(PTRACE_SEIZE, pid)
    maps = mappings(pid)
    exe = os.path.realpath(cmd[0])
    # Where the executable's file offset 0 sits; nm of a non-PIE binary
    # already prints runtime addresses.
    base = next((start for start, _, off, path in maps if path == exe and off == 0), 0)
    if syms and syms[0][0] >= base:
        base = 0

    def resolve(addr):
        for start, end, _, path in maps:
            if start <= addr < end:
                if path != exe:
                    return f"[{os.path.basename(path)}]"  # libc, vdso: no symbols read
                i = bisect.bisect_right(addrs, addr - base) - 1
                return syms[i][1] if i >= 0 else "?"
        return "?"

    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    regs = (ctypes.c_ulonglong * 27)()
    self_hits, incl_hits, total, seen = collections.Counter(), collections.Counter(), 0, 0
    lib_callers = collections.Counter()
    while True:
        time.sleep(1.0 / hz)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break  # the tracee is gone
        _, status = os.waitpid(pid, 0)
        if not os.WIFSTOPPED(status):
            break
        names = [resolve(addr) for addr in sample(pid, mem, regs)]
        ptrace(PTRACE_CONT, pid)
        seen += 1
        if under is not None and under not in names:
            continue
        total += 1
        self_hits[names[0]] += 1
        incl_hits.update(set(names))
        if names[0].startswith("["):
            lib_callers[next((n for n in names if not n.startswith("[")), "?")] += 1
    child.wait()
    print(f"{seen} samples at {hz:g} Hz of: {' '.join(cmd)}")
    if under is not None:
        print(f"{total} of them under {under}; every % below is of those")
    total = max(total, 1)
    print(f"{'self %':>7} {'incl %':>7}  function")
    ranked = sorted(incl_hits, key=lambda n: (-self_hits[n], -incl_hits[n], n))
    for name in ranked[:top]:
        print(f"{100 * self_hits[name] / total:7.1f} {100 * incl_hits[name] / total:7.1f}  {name}")
    print("-- self % by crate")
    crates = collections.Counter()
    for name, hits in self_hits.items():
        head = re.match(r"<?(\[?[\w.]+\]?)", name)
        crates[head.group(1) if head else name] += hits
    for crate, hits in crates.most_common(12):
        print(f"{100 * hits / total:7.1f}          {crate}")
    # A leaf in libc's hand-written memcpy/memcmp/malloc has pushed no frame,
    # so the chain starts at its caller's frame and the first address it
    # yields is in the caller's caller: read these as "somewhere under".
    print("-- library self % by nearest frame in the executable")
    for name, hits in lib_callers.most_common(12):
        print(f"{100 * hits / total:7.1f}          {name}")
    print("-- by inclusive share")
    for name, hits in incl_hits.most_common(top):
        print(f"{100 * self_hits[name] / total:7.1f} {100 * hits / total:7.1f}  {name}")


if __name__ == "__main__":
    main()
