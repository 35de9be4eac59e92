"""Bundled example premises.

Two of these parse through the regular grammar; the supermassive-black-hole
study is stated in free prose outside the template grammar, so it ships
pre-parsed with its reading documented below.
"""

from __future__ import annotations

from .parsing import PROVENANCE_FIXTURE, PremiseDoc, parse_premise
from .relations import RelationSet
from .variables import VariableTable

# Three-variable synthetic example: two correlations plus one marginal
# independence, which pins a single collider.
THREE_VAR_PREMISE = (
    "Suppose that there is a closed system of 3 variables, A, B and C. "
    "All statistical relations among these 3 variables are as follows: "
    "A correlates with C. B correlates with C. However, A is independent of B."
)
THREE_VAR_HYPOTHESIS = "A directly affects C."

# Five-variable worked example: a dense correlation pattern with two marginal
# and three conditional independencies; two collider hubs emerge.
FIVE_VAR_PREMISE = (
    "Suppose there is a closed system of 5 variables, A, B, C, D, and E. "
    "All the statistical relations among these 5 variables are as follows: "
    "A correlates with C. A correlates with D. A correlates with E. "
    "B correlates with D. B correlates with E. C correlates with D. "
    "C correlates with E. D correlates with E. However, A is independent of B. "
    "A and B are independent given C. B is independent of C. "
    "B and C are independent given A. C and E are independent given A, B, and D."
)
FIVE_VAR_HYPOTHESIS = "There exists at least one collider (i.e., common effect) of A and B."

# The same three-variable system told as an everyday story with labeled aliases.
JUNK_FOOD_PREMISE = (
    "eating junk food (A), obesity (C), and watching television (B) have relations "
    "with each other. There is a correlation between eating junk food and obesity, "
    "and between watching television and obesity. However, eating junk food and "
    "watching television are independent from each other."
)
JUNK_FOOD_HYPOTHESIS = "Eating junk food directly affects obesity."

# Observational astronomy premise on supermassive black holes and their host
# galaxies, verbalized with relational verbs the template grammar does not
# cover. The fixture encodes this reading:
#
#   "no significant change in bulge stellar mass with a change in central
#    density"                      -> CD and BSM unconditionally independent
#   "a decrease in black hole mass with higher central density"
#                                  -> CD and BHM dependent
#   "central density and velocity dispersion change simultaneously when
#    black hole mass is fixed"     -> CD and VD dependent (the premise states
#                                     a conditional dependence, which the
#                                     relation schema cannot hold; the
#                                     marginal reading keeps the edge, and
#                                     either reading leaves the pipeline
#                                     output unchanged because only
#                                     independence statements delete edges)
#   "higher velocity dispersion or effective radius results in lower bulge
#    stellar mass"                 -> VD-BSM and ER-BSM dependent ("results
#                                     in" is read as an observed association,
#                                     not as a declared cause)
#   "velocity dispersion and effective radius do not change simultaneously"
#                                  -> VD and ER unconditionally independent
SMBH_PREMISE_TEXT = (
    "In the (co)evolution of supermassive black holes (SMBHs) and their host "
    "galaxies, the data supports the following observations. Existing studies show "
    "that with a change in central density, there is no significant change in bulge "
    "stellar mass. However, there is a decrease in black hole mass with higher "
    "central density. Additionally, when black hole mass is fixed, central density "
    "and velocity dispersion change simultaneously. Conversely, higher velocity "
    "dispersion or effective radius results in lower bulge stellar mass, while "
    "velocity dispersion and effective radius do not change simultaneously."
)
SMBH_HYPOTHESIS = "Does central density affect black hole mass?"


def three_var_doc() -> PremiseDoc:
    return parse_premise(THREE_VAR_PREMISE)


def five_var_doc() -> PremiseDoc:
    return parse_premise(FIVE_VAR_PREMISE)


def junk_food_doc() -> PremiseDoc:
    return parse_premise(JUNK_FOOD_PREMISE)


def smbh_doc() -> PremiseDoc:
    """Pre-parsed relation set for the black-hole coevolution premise."""
    table = VariableTable(
        ["BHM", "BSM", "CD", "ER", "VD"],
        aliases={
            "BHM": "black hole mass",
            "BSM": "bulge stellar mass",
            "CD": "central density",
            "ER": "effective radius",
            "VD": "velocity dispersion",
        },
    )
    ix = {name: i for i, name in enumerate(table.names)}
    rels = RelationSet(
        table,
        dependencies=frozenset({
            (ix["CD"], ix["BHM"]),
            (ix["CD"], ix["VD"]),
            (ix["VD"], ix["BSM"]),
            (ix["ER"], ix["BSM"]),
        }),
        uncond_indep=frozenset({
            (ix["CD"], ix["BSM"]),
            (ix["VD"], ix["ER"]),
        }),
    )
    return PremiseDoc(SMBH_PREMISE_TEXT, table, rels, PROVENANCE_FIXTURE)


FIXTURES = {
    "three-var": (three_var_doc, THREE_VAR_HYPOTHESIS),
    "five-var": (five_var_doc, FIVE_VAR_HYPOTHESIS),
    "junk-food": (junk_food_doc, JUNK_FOOD_HYPOTHESIS),
    "smbh": (smbh_doc, SMBH_HYPOTHESIS),
}
