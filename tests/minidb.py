"""A tiny hand-built DBLP database with hand-computable propagation numbers.

Modeled on Fig 1 of the paper: one ambiguous name "Wei Wang" shared by two
real people, each with a disjoint coauthor circle.

Authors:   a0 "Wei Wang" (ambiguous), a1 "Jiong Yang", a2 "Jiawei Han",
           a3 "Xuemin Lin", a4 "Hongjun Lu"
Papers:    p0 (VLDB 1997)  authors: WW, Jiong Yang, Jiawei Han
           p1 (ICDE 2002)  authors: WW, Xuemin Lin, Hongjun Lu
           p2 (VLDB 2002)  authors: WW, Jiong Yang
           p3 (ICDE 2002)  authors: WW, Xuemin Lin
Ground truth: Publish rows 0 and 6 belong to Wei Wang #1 (UNC);
              rows 3 and 8 belong to Wei Wang #2 (UNSW).

Publish row ids (insertion order):
    0:(p0,a0) 1:(p0,a1) 2:(p0,a2) 3:(p1,a0) 4:(p1,a3) 5:(p1,a4)
    6:(p2,a0) 7:(p2,a1) 8:(p3,a0) 9:(p3,a3)
"""

from __future__ import annotations

from repro.data.dblp_schema import new_dblp_database, prepare_dblp_database
from repro.reldb.database import Database

#: Publish row ids of the four "Wei Wang" references.
WW_REFS = [0, 3, 6, 8]
#: ground truth entity per reference row id
WW_TRUTH = {0: "ww-unc", 6: "ww-unc", 3: "ww-unsw", 8: "ww-unsw"}
#: Authors row id of the shared "Wei Wang" tuple
WW_AUTHOR_ROW = 0


def build_minidb(prepared: bool = True, with_citations: bool = False) -> Database:
    """The database above; ``with_citations`` adds the (empty) ``Cites``
    relation to its schema."""
    db = new_dblp_database(with_citations=with_citations)
    db.insert_many(
        "Authors",
        [
            (0, "Wei Wang"),
            (1, "Jiong Yang"),
            (2, "Jiawei Han"),
            (3, "Xuemin Lin"),
            (4, "Hongjun Lu"),
        ],
    )
    db.insert_many(
        "Conferences",
        [(0, "VLDB", "VLDB Endowment"), (1, "ICDE", "IEEE")],
    )
    db.insert_many(
        "Proceedings",
        [
            (0, 0, 1997, "Athens"),
            (1, 1, 2002, "San Jose"),
            (2, 0, 2002, "Hong Kong"),
        ],
    )
    db.insert_many(
        "Publications",
        [
            (0, "STING", 0),
            (1, "Clustering XML", 1),
            (2, "Sequential patterns", 2),
            (3, "Skyline queries", 1),
        ],
    )
    db.insert_many(
        "Publish",
        [
            (0, 0), (0, 1), (0, 2),
            (1, 0), (1, 3), (1, 4),
            (2, 0), (2, 1),
            (3, 0), (3, 3),
        ],
    )
    db.check_integrity()
    if prepared:
        prepare_dblp_database(db)
    return db
