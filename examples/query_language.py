"""Interactive-style session through the textual query language.

Exercises the tiny SQL-ish front door — aggregated views for pure
``BY`` queries and range-aggregations for ``WHERE`` predicates — against
the sales cube, cross-checking every answer against the relational layer.

Run::

    python examples/query_language.py
"""

from __future__ import annotations

from repro.obs.reporting import ascii_table
from repro.query import execute
from repro.relational import group_by_sum_dict
from repro.server import OLAPServer
from repro.workloads import SalesConfig, generate_sales_records, sales_table


def main() -> None:
    config = SalesConfig(num_transactions=1500, num_days=16, seed=51)
    records = generate_sales_records(config)
    server = OLAPServer.from_records(
        records,
        ["product", "store", "day"],
        "sales",
        domains={"day": list(range(config.num_days))},
    )
    table = sales_table(config)

    queries = [
        "SUM",
        "SUM BY store",
        "SUM BY product, store",
        "SUM WHERE day IN [0, 8)",
        "SUM BY store WHERE day IN [4, 12)",
    ]
    product = server.cube.dimensions["product"].values[0]
    queries.append(f"SUM BY day WHERE product = '{product}'")

    for text in queries:
        result = execute(server, text)
        shown = sorted(result.items(), key=lambda kv: repr(kv[0]))[:6]
        rows = [[", ".join(map(str, key)) or "(total)", value] for key, value in shown]
        print(ascii_table(["group", "SUM(sales)"], rows, title=f"> {text}"))
        if len(result) > len(shown):
            print(f"  ... {len(result) - len(shown)} more groups")
        print()

    # Cross-check one grouped query against a relational GROUP BY.
    result = execute(server, "SUM BY store")
    expected = group_by_sum_dict(table, ["store"], "sales")
    assert all(
        abs(result[(store,)] - total) < 1e-6
        for (store,), total in expected.items()
    )
    print(
        f"verified against GROUP BY on the {table.num_rows}-row fact table; "
        f"server stats: {server.stats.queries} queries, "
        f"{server.stats.operations:,} scalar ops."
    )


if __name__ == "__main__":
    main()
