"""The regression corpus: shrunk counterexamples as canonical JSON files.

Every failure a fuzz session finds is serialized here as one self-contained
JSON record — the full case (topology, workload, faults, leap flag), the
verdict it produced, and provenance (session seed, round, profile, shrink
effort).  ``tests/test_fuzz_regressions.py`` replays every file on every
tier-1 run, so a counterexample found once can never silently regress: the
corpus is a permanent, growing test suite distilled from fuzzing.

This module deliberately has **no Hypothesis dependency** — loading and
replaying the corpus must work in minimal environments (CI replay jobs,
the bare test extras) even where the generation stack is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.fileio import atomic_write_text
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracle import DEFAULT_TIMEOUT_S, CaseVerdict, run_case

#: Where shrunk counterexamples live, relative to the repo root.
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "corpus"


@dataclass(frozen=True)
class Counterexample:
    """One shrunk failing case plus the verdict and provenance."""

    case: FuzzCase
    verdict: CaseVerdict
    discovered: Dict[str, object] = field(default_factory=dict)

    @property
    def token(self) -> str:
        return self.case.token

    @property
    def filename(self) -> str:
        return f"{self.verdict.kind}-{self.token}.json"

    def describe(self) -> Dict[str, object]:
        return {
            "version": 1,
            "kind": self.verdict.kind,
            "token": self.token,
            "case": self.case.describe(),
            "verdict": self.verdict.describe(),
            "discovered": dict(self.discovered),
        }

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Counterexample":
        record = cls(
            case=FuzzCase.from_dict(data["case"]),
            verdict=CaseVerdict.from_dict(data["verdict"]),
            discovered=dict(data.get("discovered", {})),
        )
        stored = data.get("token")
        if stored is not None and stored != record.token:
            raise ValueError(
                f"corpus record token {stored!r} does not match its case "
                f"({record.token!r}) — the case was edited without re-canonicalising"
            )
        return record

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Counterexample":
        return cls.from_json(Path(path).read_text())


def save_case(counterexample: Counterexample, directory: Union[str, Path]) -> Path:
    """Write one record into the corpus; returns the file path.

    The filename embeds kind + case token, so re-discovering a known
    counterexample overwrites its own file instead of duplicating it.  The
    write goes through a per-writer-unique temp file + ``os.replace`` so a
    crash mid-write (or two farm workers landing the same finding at once)
    can never leave a torn record for the replay suite to choke on.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(directory / counterexample.filename, counterexample.to_json())


def corpus_files(directory: Union[str, Path] = DEFAULT_CORPUS_DIR) -> List[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


def load_corpus(directory: Union[str, Path] = DEFAULT_CORPUS_DIR) -> List[Counterexample]:
    return [Counterexample.load(path) for path in corpus_files(directory)]


def replay_case(
    record: Union[Counterexample, FuzzCase, str, Path],
    *,
    kernel_factories: Optional[Dict[str, Callable]] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> CaseVerdict:
    """Re-run a corpus record (or raw case / path) through the oracle.

    On current kernels a corpus case should verdict ``pass`` — that is the
    regression property.  The historical verdict stays in the record for
    triage; it is *not* what replay asserts against.
    """
    if isinstance(record, (str, Path)):
        path = Path(record)
        text = path.read_text()
        data = json.loads(text)
        case = (
            Counterexample.from_dict(data).case
            if "case" in data
            else FuzzCase.from_dict(data)
        )
    elif isinstance(record, Counterexample):
        case = record.case
    else:
        case = record
    return run_case(case, kernel_factories=kernel_factories, timeout_s=timeout_s)
