"""Domain exceptions shared across the package.

Every failure that a caller can provoke with well-typed but invalid input
derives from DomainError; the CLI maps these to exit code 1 and reports
the machine-readable ``code`` alongside the message.
"""


class DomainError(Exception):
    code = "domain-error"


class InvalidDefinition(DomainError):
    """Malformed category, generator, rule, word, or file input."""

    code = "invalid-definition"


class ChainMismatch(DomainError):
    code = "chain-mismatch"


class RewriteBudgetExceeded(DomainError):
    code = "rewrite-budget-exceeded"


class InvalidRule(DomainError):
    code = "invalid-rule"


class NotComposable(DomainError):
    code = "not-composable"


class NoSharpGenerator(DomainError):
    code = "no-sharp-generator"


class NotSrt1Shape(DomainError):
    code = "not-srt1-shape"


class EndpointMismatch(DomainError):
    code = "endpoint-mismatch"


class DanglingEdge(DomainError):
    code = "dangling-edge"


class InvalidSymbol(DomainError):
    code = "invalid-symbol"


class EmptyFormula(DomainError):
    code = "empty-formula"


class NoFreeVariable(DomainError):
    code = "no-free-variable"


class InvalidAxiom(DomainError):
    code = "invalid-axiom"


class NotSurjective(DomainError):
    code = "not-surjective"


class EnumerationCapExceeded(DomainError):
    code = "enumeration-cap-exceeded"


class VarNotFree(DomainError):
    code = "var-not-free"


class DanglingArc(DomainError):
    code = "dangling-arc"


class MaterializeTooLarge(DomainError):
    code = "materialize-too-large"
