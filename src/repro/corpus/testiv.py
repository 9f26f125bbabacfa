"""The paper's TESTIV example (figures 9/10, minus the tool's directives).

TESTIV repeatedly smooths a node field over a triangular mesh: each
triangle averages its three summit values weighted by the triangle area,
then scatters a third of that back to each summit (normalized by the node
area).  Iteration stops when the squared change drops below ``epsilon`` or
after ``maxloop`` sweeps.  The paper states this example "summarizes all
the features of our target class of programs": a node-loop copy, a
triangle-loop gather–scatter, a scalar reduction, a convergence test, and
a goto-driven time-step loop.
"""

from __future__ import annotations

TESTIV_SOURCE = """\
      subroutine TESTIV(INIT, RESULT, nsom, ntri, SOM, AIRETRI, AIRESOM,
     &                  epsilon, maxloop)
      integer nsom, ntri, maxloop
      integer SOM(2000,3)
      real epsilon
      real INIT(1000), RESULT(1000), AIRESOM(1000)
      real AIRETRI(2000)
      integer i, loop, s1, s2, s3
      real vm, sqrdiff, diff
      real OLD(1000), NEW(1000)
      do i = 1,nsom
         OLD(i) = INIT(i)
      end do
      loop = 0
 100  loop = loop + 1
      do i = 1,nsom
         NEW(i) = 0.0
      end do
      do i = 1,ntri
         s1 = SOM(i,1)
         s2 = SOM(i,2)
         s3 = SOM(i,3)
         vm = OLD(s1) + OLD(s2) + OLD(s3)
         vm = vm * AIRETRI(i) / 18.0
         NEW(s1) = NEW(s1) + vm/AIRESOM(s1)
         NEW(s2) = NEW(s2) + vm/AIRESOM(s2)
         NEW(s3) = NEW(s3) + vm/AIRESOM(s3)
      end do
      sqrdiff = 0.0
      do i = 1,nsom
         diff = NEW(i) - OLD(i)
         sqrdiff = sqrdiff + diff*diff
      end do
      if (sqrdiff .lt. epsilon) goto 200
      if (loop .eq. maxloop) goto 200
      do i = 1,nsom
         OLD(i) = NEW(i)
      end do
      goto 100
 200  do i = 1,nsom
         RESULT(i) = NEW(i)
      end do
      end
"""

#: The looser sketch of figure 5 (three partitioned loops and a reduction),
#: completed into compilable form with the same access patterns.  The
#: paper's sketch writes ``NEW(SUMMIT1(i)) = ... val2 ...``; we make the
#: scatter an explicit accumulation (as in the real TESTIV) because a
#: plain indirect store is nondeterministic when two triangles share a
#: summit — the legality checker rightly rejects it.
FIG5_SKETCH_SOURCE = """\
      subroutine SKETCH(OLD, NEW, nsom, ntri, SOM, sqrdiff, OUT)
      integer nsom, ntri
      integer SOM(2000,3)
      real OLD(1000), NEW(1000), OUT(2000)
      real sqrdiff, val2, diff
      integer i, j
      do i = 1,ntri
         val2 = OLD(SOM(i,2))
         NEW(SOM(i,1)) = NEW(SOM(i,1)) + val2 * 0.5
      end do
      sqrdiff = 0.0
      do j = 1,nsom
         diff = NEW(j) - OLD(j)
         sqrdiff = sqrdiff + diff*diff
      end do
      do i = 1,ntri
         OUT(i) = NEW(SOM(i,3)) * sqrdiff
      end do
      end
"""
