import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules import each other as top-level names, as they
# do when run as scripts; the program itself lives in src/
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
