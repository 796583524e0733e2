"""One declaration per serving setting.

What the config dataclass, the ``serve`` flags and the flag tables in
``docs/`` say about a setting all come from the field's declaration in
:mod:`repro.service.config`; these tests fail when any of them says
something else.
"""

import io
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig, _flagged

DOCS = Path(__file__).resolve().parents[2] / "docs"
COMMANDS = {"serve": (ServiceConfig,)}

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


def settings_of(command):
    """``(config class, field, declaration, dest)`` per generated flag."""
    for config_class in COMMANDS[command]:
        for spec, declared, dest in _flagged(config_class):
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
            assert getattr(args, dest) == spec.default, spec.name
            checked += 1
        assert checked == 13

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
    @pytest.mark.parametrize("command, frozen", [("serve", SERVE_FLAGS)])
    def test_every_flag_of_the_parent_is_still_spelled_the_same(
        self, command, frozen, capsys
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        printed = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.M))
        assert frozen <= printed, sorted(frozen - printed)
        assert len(printed) == 20


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
            for config_class in COMMANDS["serve"]
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
