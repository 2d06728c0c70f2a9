"""Record the expected answer of every pool entry into perfbench/expected/.

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

The recorded digests are the reference the benchmark checks against, so
they are taken once, at the commit that defined the benchmark, and are
not regenerated by a change that claims to keep every answer. Entries
whose independent oracle or expected rejection disagrees are listed and
make the script exit 1.
"""

import sys

import answers
import clicold
import workloads
import worker

NOTE = ("Answer digests per pool entry, recorded at the commit that defined the benchmark "
        "(perfbench/record.py). Key: kind:stratum; value: one digest per pool index.")


def record_in_process(name):
    digests, problems = {}, []
    # The runner checks each entry against the digest recorded just before,
    # so only oracle and expected-rejection disagreements come back.
    runner = worker.InProcess(name, seed=0, expected=digests)
    _, template = workloads.WORKLOADS[name]
    for kind_name, stratum, _ in template:
        key = workloads.stratum_key(kind_name, stratum)
        if key in digests:
            continue
        digests[key] = []
        for index in range(workloads.POOL_SIZE):
            op = (kind_name, key, index, workloads.pool_args(name, kind_name, stratum, index))
            _, result, problem = runner.execute(op)
            if problem is not None:
                digests[key].append("-")
                problems.append(problem)
                continue
            digests[key].append(runner.digest(op, result))
            problem = runner.check(op, result)
            if problem is not None:
                problems.append(problem)
    return digests, problems


def record_cli(file_dir):
    digests, problems = {}, []
    runner = worker.ColdCli(0, file_dir, file_dir, expected=digests)
    for kind in (*clicold.REGULAR_KINDS, clicold.LARGE_KIND):
        digests[kind] = []
        for index in range(clicold.pool_size(kind)):
            argv, text = clicold.pool_entry(kind, index)
            if text is not None:
                path = file_dir / f"{kind}-{index}.txt"
                path.write_text(text, encoding="utf-8")
                argv = [str(path) if a == "{file}" else a for a in argv]
            proc = runner.spawn(argv)
            digests[kind].append(answers.digest((proc.returncode, proc.stdout)))
            if b"Traceback" in proc.stderr or proc.returncode not in (0, 1, 2):
                problems.append(f"{kind}#{index}: {' '.join(argv)} -> exit {proc.returncode}")
    return digests, problems


def main(names):
    failed = False
    for name in names or [*workloads.WORKLOADS, "cli_cold"]:
        if name == "cli_cold":
            file_dir = worker.ROOT / ".perfbench_out" / "record-files"
            file_dir.mkdir(parents=True, exist_ok=True)
            digests, problems = record_cli(file_dir)
            for path in file_dir.iterdir():
                path.unlink()
            file_dir.rmdir()
        else:
            digests, problems = record_in_process(name)
        answers.save_expected(name, digests, NOTE)
        count = sum(len(v) for v in digests.values())
        print(f"{name}: {count} answers recorded in {answers.expected_path(name).relative_to(worker.ROOT)}")
        for problem in problems:
            print(f"  {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
