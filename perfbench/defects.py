"""Known defects of refshift that the benchmark keeps in its data.

Each id marks operations that fail today at a known input.  Rounds carry
a fixed number of them, so a workload's baseline error rate is exactly
the share listed in DESIGN.md, and a fix shows as a drop to 0 (pass_rate
rises to 1).  A failure of any other operation makes the run incorrect.
"""

DEFECTS = {
    "word-roundtrip": "cat.word(str(w)) raises InvalidDefinition for F#^4, F^4#, ~R^4 "
                      "and smullyan P[]^4: runs of 4+ glued to other single-character names",
    "parse-depth": "fixpoint.parse_term raises RecursionError at nesting depth 497 and above",
    "term-str-depth": "str() of a fixpoint term (Apply.__str__) raises RecursionError at "
                      "nesting depth 333 and above",
    "cli-iterate-rle": "refshift iterate --base next-simplest --arrow 'F#^8 -> F' exits 1 "
                       "(the same word-syntax defect, seen from the CLI)",
}

# Words whose printed form does not parse back; every engines-mix round has each once.
ROUNDTRIP_WORDS = (
    ("next-simplest", "F####"),
    ("next-simplest", "FFFF#"),
    ("russell", "~RRRR"),
    ("smullyan", "P[]]]]"),
)

# Term nesting depths.  Printing recurses about three frames per level and fails
# from depth 333, parsing two frames per level and fails from depth 497 (both
# measured at the top of the stack; the benchmark's own frames lower them a
# little).  Every round draws sound terms up to TERM_SOUND_DEPTH, one term in
# STR_DEFECT_DEPTHS (parses, fails to print) and one in PARSE_DEFECT_DEPTHS.
TERM_SOUND_DEPTH = 320
STR_DEFECT_DEPTHS = (340, 480)
PARSE_DEFECT_DEPTHS = (497, 600)
