"""Built-in analysis passes.

Importing this package registers every pass with the framework
registry; each module registers its pass with the
:func:`~repro.analyze.framework.analysis_pass` decorator.
"""

from repro.analyze.passes import (  # noqa: F401
    async_hazard,
    config_pass,
    docs_pass,
    lint_pass,
    spec_equiv,
)
