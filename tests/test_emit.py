"""The CLI's block writer and its script entry.

`cli._emit` joins a command's chunk stream into blocks of at least
`cli.BLOCK_SIZE` characters before it writes.  `cli.console_main` (the
`bruhatcap` console script and `python -m bruhatcap.cli`) runs `cli.main`
and ends the process with os._exit.  Each entry case runs it in a fresh
process and compares it with `cli.main`: called in-process, and run in a
process that exits the normal way, with interpreter teardown.
"""

import ast
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcap import cli, graphs
from bruhatcap.rootsystem import build
from bruhatcap.weyl import generate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# How each side starts: the script entry, and cli.main with the normal exit.
ENTRY = ("-m", "bruhatcap.cli")
NORMAL_EXIT = ("-c", "import sys; from bruhatcap.cli import main; sys.exit(main())")

EXPORT = ("graph", "quantum", "-t", "F", "-r", "4", "--format", "json")  # 2 MB of JSON
REFUSED = ("graph", "quantum", "-t", "A", "-r", "2", "--lambda", "1,2,3")  # not dominant


def _env(**extra):
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def _run(start, argv, **kwargs):
    return subprocess.run([sys.executable, *start, *argv], env=kwargs.pop("env", _env()),
                          stdout=kwargs.pop("stdout", subprocess.PIPE), stderr=subprocess.PIPE,
                          timeout=120, check=False, **kwargs)


# ---------------------------------------------------------------------------
# Blocks


_CHUNK_LENGTHS = st.one_of(st.integers(0, 2000), st.integers(0, 3 * cli.BLOCK_SIZE))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab\n"), _CHUNK_LENGTHS), max_size=120))
def test_blocks_join_to_the_chunks(spec):
    chunks = [char * n for char, n in spec]
    blocks = list(cli._blocks(chunks))
    assert "".join(blocks) == "".join(chunks)
    assert all(blocks)
    assert all(len(block) >= cli.BLOCK_SIZE for block in blocks[:-1])
    # Every block ends where a chunk ends, so no chunk is split, and a chunk
    # longer than a block passes whole; a block holds less than BLOCK_SIZE
    # before its last chunk.
    chunk_ends = sorted(set(itertools.accumulate(map(len, chunks), initial=0)))
    start = 0
    for end in itertools.accumulate(map(len, blocks)):
        assert end in chunk_ends
        before_last = chunk_ends[chunk_ends.index(end) - 1]
        assert before_last - start < cli.BLOCK_SIZE
        start = end


class _Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_f4_quantum_export_is_written_in_blocks(monkeypatch):
    graph = graphs.quantum_bruhat_graph(generate(build("F", 4)))
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli._emit(graphs.export_chunks(graph, "json"), None)
    text = "".join(recorder.writes)
    assert text == graphs.export(graph, "json")
    n_bytes = len(text.encode("utf-8"))
    assert n_bytes > 2_000_000
    assert len(recorder.writes) <= math.ceil(n_bytes / 65536) + 1


# ---------------------------------------------------------------------------
# The script entry against cli.main


@pytest.mark.parametrize("argv", [EXPORT, REFUSED], ids=["success", "refused weight"])
def test_entry_matches_main(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    expected = (code, captured.out.encode(), captured.err.encode())
    for start in (ENTRY, NORMAL_EXIT):
        proc = _run(start, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
    if argv is REFUSED:
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: lambda is not dominant")
    else:
        assert code == 0 and captured.err == ""


def _read_head_and_close(start, argv):
    with subprocess.Popen([sys.executable, *start, *argv], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()  # the export is still being written
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    return code, head, err


def test_entry_matches_main_on_a_pipe_closed_mid_export():
    entry = _read_head_and_close(ENTRY, EXPORT)
    assert entry == _read_head_and_close(NORMAL_EXIT, EXPORT)
    code, head, err = entry
    assert (code, err) == (1, b"")
    assert head.startswith(b'{\n  "directed": true,')


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_entry_matches_main_on_a_full_stdout():
    for start in (ENTRY, NORMAL_EXIT):
        with open("/dev/full", "w") as full:
            proc = _run(start, EXPORT, stdout=full)
        assert proc.returncode == 1
        assert proc.stderr == b"error: cannot write <stdout>: No space left on device\n"


def test_entry_runs_atexit_handlers_before_the_last_flush(capsys):
    # Buffered stdout, so the handler's line is written only by the flush
    # that follows the handlers.
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    register = "import atexit, sys; atexit.register(print, 'atexit handler ran'); from bruhatcap import cli; "
    argv = ("table", "-t", "G")
    assert cli.main(list(argv)) == 0
    expected = capsys.readouterr().out.encode() + b"atexit handler ran\n"
    for call in ("cli.console_main()", "sys.exit(cli.main())"):
        proc = _run(("-c", register + call), argv, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


@pytest.mark.parametrize("start", [ENTRY, NORMAL_EXIT], ids=["entry", "normal exit"])
def test_closed_stdout_is_a_clean_error(start):
    # As `bruhatcap table >&-`: the process starts without fd 1, so
    # sys.stdout is None.
    proc = _run(start, ("table",), stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write <stdout>: Bad file descriptor\n"


def test_console_script_and_main_block_call_the_same_function():
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    module, function = re.search(r'^bruhatcap = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert module == cli.__name__
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    calls = [node.func.id for node in ast.walk(block)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls == [function]
    assert callable(getattr(cli, function))
