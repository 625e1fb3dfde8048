"""Exact-arithmetic toolkit for Fano polygons, scaffoldings and periods.

Subpackages are organised by pipeline stage: integer/rational linear algebra
(linalg), exact polyhedra (polyhedra), Fano polygon invariants
(polygon), scaffolding and Cox constructions (scaffolding, cox), Laurent and
power series (symbolic, laurent, series), curve-class cones and the quantum
period (quantum), and the command line front end (cli).
"""

__version__ = "0.1.0"
