"""One declaration per serving setting.

What a config dataclass, the ``serve`` / ``route`` flags, the replica argv
``route`` generates and the flag tables in ``docs/`` say about a setting
all come from the field's declaration in :mod:`repro.service.config`; these
tests fail when any of them says something else.
"""

import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _replica_argv, _service_config, build_parser, main
from repro.exceptions import ServiceError
from repro.service.config import (
    RouterConfig,
    ServiceConfig,
    SupervisorConfig,
    _flagged,
)

DOCS = Path(__file__).resolve().parents[2] / "docs"
COMMANDS = {
    "serve": (ServiceConfig,),
    "route": (ServiceConfig, RouterConfig, SupervisorConfig),
}
#: `route` deliberately starts two workers per replica, not four.
ROUTE_OVERRIDES = {"workers": 2}

# Every flag spelling `--help` prints; a rename or a dropped flag must fail
# here, loudly.
SERVE_FLAGS = {
    "--adaptive", "--backend", "--cache-ttl", "--host",
    "--max-build-memory-mb", "--max-index-mb",
    "--max-requests", "--measure", "--network", "--port", "--queue-depth",
    "--reindex-interval", "--reindex-min-queries", "--row-cache-rows",
    "--storage", "--storage-dir", "--strategy", "--subpath-cache-mb",
    "--timeout", "--workers",
}  # fmt: skip
ROUTE_FLAGS = {
    "--attempt-timeout", "--backend", "--breaker-reset", "--breaker-threshold",
    "--cache-ttl", "--host",
    "--max-build-memory-mb", "--max-requests", "--max-restarts-in-window",
    "--measure", "--network", "--port", "--probe-interval", "--queue-depth",
    "--replicas", "--restart-base-delay",
    "--storage", "--strategy", "--workers",
}  # fmt: skip
PATH_FLAGS = {"--storage-dir"}


def settings_of(command):
    """``(config class, field, declaration, dest)`` per generated flag."""
    for config_class in COMMANDS[command]:
        forwarded_only = command == "route" and config_class is ServiceConfig
        for spec, declared, dest in _flagged(config_class, forwarded_only):
            yield config_class, spec, declared, dest


def parse(command, *flags):
    return build_parser().parse_args([command, "--network", "net.json", *flags])


def run(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


class TestParity:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_parser_defaults_are_the_dataclass_defaults(self, command):
        args = parse(command)
        checked = 0
        for _, spec, _, dest in settings_of(command):
            expected = spec.default
            if command == "route":
                expected = ROUTE_OVERRIDES.get(spec.name, expected)
            assert getattr(args, dest) == expected, spec.name
            checked += 1
        assert checked == {"serve": 13, "route": 18}[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_of_range_names_the_same_field_on_both_paths(self, command):
        checked = 0
        for config_class, spec, declared, _ in settings_of(command):
            if declared.positive:
                bad = 0
            elif declared.at_least is not None:
                bad = declared.at_least - 1
            else:
                continue
            with pytest.raises(ServiceError, match=f"^{spec.name} must be"):
                config_class(**{spec.name: bad})
            code, output = run(
                [command, "--network", "net.json", declared.flag, str(bad)]
            )
            assert code == 1
            assert f"error: {spec.name} must be" in output
            checked += 1
        assert checked >= 9

    @pytest.mark.parametrize("command", COMMANDS)
    def test_choices_are_the_declared_ones(self, command):
        for _, spec, declared, dest in settings_of(command):
            if declared.choices is None:
                continue
            for choice in declared.choices:
                assert getattr(parse(command, declared.flag, choice), dest) == choice
            with pytest.raises(SystemExit):
                parse(command, declared.flag, "no-such-choice")


class TestSurfaceFreeze:
    @pytest.mark.parametrize(
        "command, frozen", [("serve", SERVE_FLAGS), ("route", ROUTE_FLAGS)]
    )
    def test_every_flag_of_the_parent_is_still_spelled_the_same(
        self, command, frozen, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        printed = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.M))
        assert frozen <= printed, sorted(frozen - printed)
        assert len(printed) == {"serve": 20, "route": 26}[command]

    def test_route_takes_every_serve_flag_but_the_paths(self, capsys):
        printed = {}
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            printed[command] = set(
                re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.M)
            )
        assert printed["serve"] - printed["route"] == PATH_FLAGS
        unforwarded = {
            declared.flag
            for _, declared, _ in _flagged(ServiceConfig)
            if not declared.forward
        }
        assert unforwarded == PATH_FLAGS


def valid_values(spec, declared):
    """Values the declared bound of one flagged field admits."""
    if spec.type == "bool":
        return st.booleans()
    if declared.choices is not None:
        return st.sampled_from(declared.choices)
    low = declared.at_least if declared.at_least is not None else 0
    if spec.type.startswith("int"):
        return st.integers(low + (1 if declared.positive else 0), 10**6)
    return st.floats(low, 1e6, exclude_min=declared.positive)


@st.composite
def replica_flag_lines(draw):
    """Some of the per-replica flags of ``route``, each with a valid value."""
    line = []
    for spec, declared, _ in _flagged(ServiceConfig, forwarded_only=True):
        if not draw(st.booleans()):
            continue
        value = draw(valid_values(spec, declared))
        if spec.type == "bool":
            line += [declared.flag] if value else []
        else:
            line += [declared.flag, str(value)]
    if draw(st.booleans()):
        line += ["--strategy", draw(st.sampled_from(["baseline", "pm", "spm"]))]
    if draw(st.booleans()):
        line += ["--measure", draw(st.sampled_from(["netout", "pathsim", "cossim"]))]
    if draw(st.booleans()):
        line += ["--row-cache-rows", str(draw(st.integers(0, 10**6)))]
    return line


class TestReplicaHandOff:
    @settings(max_examples=150, deadline=None)
    @given(replica_flag_lines())
    def test_replica_argv_parses_back_to_the_same_settings(self, line):
        routed = parse("route", *line)
        argv = _replica_argv(routed)
        assert not PATH_FLAGS & set(argv)
        served = parse("serve", *argv)
        assert _service_config(served) == _service_config(routed)
        for engine_setting in ("strategy", "measure", "row_cache_rows"):
            assert getattr(served, engine_setting) == getattr(routed, engine_setting)

    def test_route_refuses_the_per_process_paths(self):
        for flag in PATH_FLAGS:
            with pytest.raises(SystemExit):
                parse("route", flag, "somewhere")


def doc_row(spec, declared) -> str:
    """The row a flag table in ``docs/`` carries for one flagged setting."""
    default = spec.default
    if default is None:
        shown = "none"
    elif isinstance(default, bool):
        shown = "on" if default else "off"
    elif isinstance(default, float):
        shown = f"{default:g}"
    else:
        shown = str(default)
    return f"| `{declared.flag}` | {shown} | {declared.help} |"


STORAGE_FIELDS = (
    "storage",
    "storage_dir",
    "max_build_memory_mb",
)


class TestDocs:
    def test_service_md_tables_are_the_declarations(self):
        text = (DOCS / "service.md").read_text(encoding="utf-8")
        missing = [
            doc_row(spec, declared)
            for config_class in COMMANDS["route"]
            for spec, declared, _ in _flagged(config_class)
            if spec.name not in STORAGE_FIELDS
            and doc_row(spec, declared) not in text
        ]
        assert not missing, "docs/service.md lacks these rows:\n" + "\n".join(missing)

    def test_scale_md_storage_rows_are_the_declarations(self):
        text = (DOCS / "scale.md").read_text(encoding="utf-8")
        missing = [
            doc_row(spec, declared)
            for spec, declared, _ in _flagged(ServiceConfig)
            if spec.name in STORAGE_FIELDS and doc_row(spec, declared) not in text
        ]
        assert not missing, "docs/scale.md lacks these rows:\n" + "\n".join(missing)
