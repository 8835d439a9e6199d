"""The README's library quickstart, run as written but for its epoch count."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert code.count("max_epochs=300") == 1
    exec(compile(code.replace("max_epochs=300", "max_epochs=2"), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "zsl_accuracy = " in out and "harmonic = " in out
