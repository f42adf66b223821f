"""The CI workflow parses, and each of its steps runs a command or an
action."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tests.yml")


def test_every_workflow_step_runs_or_uses():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert jobs
    for job in jobs.values():
        assert job["steps"]
        for step in job["steps"]:
            assert isinstance(step.get("run"), str) or "uses" in step, step
