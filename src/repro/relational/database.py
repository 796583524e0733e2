"""A database of relational tables with referential-integrity checking."""

from __future__ import annotations

from typing import Iterator

from repro.relational.table import RelationalError, Table

__all__ = ["RelationalDatabase"]


class RelationalDatabase:
    """A named collection of :class:`~repro.relational.table.Table` objects.

    Responsibilities: table registry, foreign-key target validation at
    registration time, and whole-database referential-integrity checking
    before conversion to a HIN.

    Examples
    --------
    >>> from repro.relational import Column, ForeignKey, Table
    >>> db = RelationalDatabase()
    >>> db.add_table(Table("customer", [Column("id", int)], "id"))
    >>> db.add_table(Table(
    ...     "order",
    ...     [Column("id", int), Column("customer_id", int)],
    ...     "id",
    ...     [ForeignKey("customer_id", "customer", "id")],
    ... ))
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register a table; FK targets must already be registered."""
        if table.name in self._tables:
            raise RelationalError(f"duplicate table {table.name!r}")
        for fk in table.foreign_keys:
            target = self._tables.get(fk.table)
            if target is None:
                raise RelationalError(
                    f"table {table.name!r}: foreign key references unknown "
                    f"table {fk.table!r}"
                )
            if fk.ref_column != target.primary_key:
                raise RelationalError(
                    f"table {table.name!r}: foreign key must reference the "
                    f"primary key of {fk.table!r} ({target.primary_key!r}), "
                    f"got {fk.ref_column!r}"
                )
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise RelationalError(f"unknown table {name!r}")
        return table

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Raise :class:`RelationalError` on any dangling foreign key.

        Null foreign-key values are allowed (they simply produce no edge on
        conversion, mirroring the paper's NULL missing-data artifact).
        """
        for table in self._tables.values():
            for fk in table.foreign_keys:
                target = self.table(fk.table)
                for row in table.rows():
                    value = row[fk.column]
                    if value is None:
                        continue
                    if not target.has_key(value):
                        raise RelationalError(
                            f"table {table.name!r}: row "
                            f"{row[table.primary_key]!r} references missing "
                            f"{fk.table}.{fk.ref_column} = {value!r}"
                        )

    def junction_tables(self) -> list[Table]:
        """Tables that are pure many-to-many junctions.

        A junction table has exactly two foreign keys and no data columns
        besides its primary key and the FK columns — the shape that
        conversion can collapse into direct edges.
        """
        junctions = []
        for table in self._tables.values():
            if len(table.foreign_keys) != 2:
                continue
            fk_columns = {fk.column for fk in table.foreign_keys}
            data_columns = set(table.columns) - fk_columns - {table.primary_key}
            if not data_columns:
                junctions.append(table)
        return junctions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationalDatabase(tables={self.table_names})"
